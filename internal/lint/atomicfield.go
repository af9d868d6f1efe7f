package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicField enforces the mixed-access rule behind the lock-free paths
// (the failpoint registry's armed counter, the id map's per-id state
// words): a struct field that is accessed through sync/atomic —
// either because its type is one of the atomic.* wrapper types or because
// its address is passed to a sync/atomic function anywhere in the package —
// must never be read or written plainly. One plain store racing atomic
// loads is undefined behavior the race detector only catches when the
// schedule cooperates; this analyzer catches it at compile time.
//
// Allowed accesses:
//   - atomic.* wrapper types: method calls (f.Load(), f.Store(x)) and
//     taking the address (&s.f);
//   - address-taken fields: &s.f as an argument to a sync/atomic function;
//   - any access inside the type's constructor functions (New*/new*/
//     Open*/open*/make*/init), where the value has not escaped yet.
//
// Everything else needs an audited //lint:allow atomicfield comment.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "flags plain reads/writes of struct fields that are elsewhere " +
		"accessed via sync/atomic or typed atomic.*",
	Run: runAtomicField,
}

// atomicWrapperTypes are the sync/atomic value types (go1.19+). Generic
// atomic.Pointer[T] is matched by name as well.
var atomicWrapperTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

func runAtomicField(p *Pass) error {
	// Pass 1: collect the package's atomic fields.
	//
	// wrapped: fields whose type is an atomic.* wrapper — plain copies are
	// the hazard (method calls go through the pointer receiver).
	// addressed: plain-typed fields whose address is passed to a
	// sync/atomic function somewhere in the package — ANY plain use is the
	// hazard.
	wrapped := map[*types.Var]bool{}
	addressed := map[*types.Var]bool{}

	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					for _, name := range fld.Names {
						v, ok := p.Info.Defs[name].(*types.Var)
						if ok && isAtomicWrapper(v.Type()) {
							wrapped[v] = true
						}
					}
				}
			case *ast.CallExpr:
				fn, ok := calleeObj(p.Info, n).(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range n.Args {
					un, isUn := ast.Unparen(arg).(*ast.UnaryExpr)
					if !isUn || un.Op.String() != "&" {
						continue
					}
					if v := fieldVar(p.Info, un.X); v != nil {
						addressed[v] = true
					}
				}
			}
			return true
		})
	}
	if len(wrapped) == 0 && len(addressed) == 0 {
		return nil
	}

	// Pass 2: flag plain accesses outside constructors.
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isConstructorName(fd.Name.Name) {
				continue
			}
			checkAtomicUses(p, fd.Body, wrapped, addressed)
		}
	}
	return nil
}

func isAtomicWrapper(t types.Type) bool {
	named := namedFrom(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicWrapperTypes[obj.Name()]
}

// isConstructorName reports whether a function plausibly initializes a value
// before it escapes to other goroutines; plain field access is legal there.
func isConstructorName(name string) bool {
	for _, prefix := range []string{"New", "new", "Open", "open", "make", "init", "Init"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// fieldVar resolves an expression to the struct-field *types.Var it selects,
// or nil if it is not a field selection.
func fieldVar(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// checkAtomicUses walks a function body flagging misuses. parents are
// tracked so a selector can be judged by its context: receiver of a method
// call, operand of &, argument to sync/atomic, LHS of assignment.
func checkAtomicUses(p *Pass, body *ast.BlockStmt, wrapped, addressed map[*types.Var]bool) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v := fieldVar(p.Info, sel)
		if v == nil {
			return true
		}
		if wrapped[v] {
			if !wrapperUseOK(p.Info, stack) {
				p.Reportf(sel.Pos(), "atomic-typed field %s used as a plain value (copy or reassignment); use its Load/Store/Add methods", v.Name())
			}
			return true
		}
		if addressed[v] {
			if !addressedUseOK(p.Info, stack) {
				p.Reportf(sel.Pos(), "field %s is accessed with sync/atomic elsewhere; this plain access races those atomics", v.Name())
			}
		}
		return true
	})
}

// wrapperUseOK reports whether the selector at the top of stack (an
// atomic.*-typed field) appears in a legal context: as the receiver of a
// method call (s.f.Load()), under & (passing the pointer), or as the base
// of a deeper selection.
func wrapperUseOK(info *types.Info, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.SelectorExpr:
		// s.f.Load — the parent selection resolves a method on the field.
		if s, ok := info.Selections[parent]; ok && s.Kind() == types.MethodVal {
			return true
		}
		// A field-of-field selection through an atomic wrapper does not
		// exist (wrappers have no exported fields); treat as misuse.
		return false
	case *ast.UnaryExpr:
		return parent.Op.String() == "&"
	}
	return false
}

// addressedUseOK reports whether the selector appears as &s.f passed
// directly to a sync/atomic call.
func addressedUseOK(info *types.Info, stack []ast.Node) bool {
	if len(stack) < 3 {
		return false
	}
	un, ok := stack[len(stack)-2].(*ast.UnaryExpr)
	if !ok || un.Op.String() != "&" {
		return false
	}
	call, ok := stack[len(stack)-3].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := calleeObj(info, call).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}
