package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is the Prometheus metric type of a family.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// family is one registered metric family: a name, help text, a kind, and
// either a single unlabeled metric or a vec of labeled children.
type family struct {
	name string
	help string
	kind Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // callback gauge/counter; nil otherwise

	vec *vec // labeled family; nil otherwise
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format v0.0.4. Registration is idempotent by name: asking for a
// family that already exists returns the existing one (and panics if the
// kind or label set differs, which is a programming error). All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	hookMu   sync.Mutex
	hooks    map[uint64]func()
	nextHook uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every plane registers into and
// GET /metrics serves.
func Default() *Registry { return defaultRegistry }

// register adds fam, or returns the existing family of the same name after
// checking that the shapes agree.
func (r *Registry) register(fam *family) *family {
	checkName(fam.name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.families[fam.name]; ok {
		if old.kind != fam.kind || (old.vec == nil) != (fam.vec == nil) {
			panic(fmt.Sprintf("metrics: %s re-registered as a different kind (%s vs %s)", fam.name, old.kind, fam.kind))
		}
		if old.vec != nil && strings.Join(old.vec.labels, ",") != strings.Join(fam.vec.labels, ",") {
			panic(fmt.Sprintf("metrics: %s re-registered with different labels", fam.name))
		}
		return old
	}
	r.families[fam.name] = fam
	return fam
}

// Counter returns the registered counter name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	fam := r.register(&family{name: name, help: help, kind: KindCounter, counter: &Counter{}})
	return fam.counter
}

// Gauge returns the registered gauge name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	fam := r.register(&family{name: name, help: help, kind: KindGauge, gauge: &Gauge{}})
	return fam.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at render time.
// Re-registering the same name keeps the FIRST callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindGauge, fn: fn})
}

// CounterFunc registers a counter whose value is computed by fn at render
// time; fn must be monotonically non-decreasing (e.g. a runtime total).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindCounter, fn: fn})
}

// Histogram returns the registered histogram name, creating it with the
// given bucket upper bounds if needed (an implicit +Inf bucket is always
// appended).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	fam := r.register(&family{name: name, help: help, kind: KindHistogram, hist: newHistogram(buckets)})
	return fam.hist
}

// CounterVec returns the registered labeled counter family name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	fam := r.register(&family{name: name, help: help, kind: KindCounter, vec: newVec(labels, func() any { return &Counter{} })})
	return &CounterVec{fam.vec}
}

// GaugeVec returns the registered labeled gauge family name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	fam := r.register(&family{name: name, help: help, kind: KindGauge, vec: newVec(labels, func() any { return &Gauge{} })})
	return &GaugeVec{fam.vec}
}

// HistogramVec returns the registered labeled histogram family name. All
// children share the bucket bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	fam := r.register(&family{name: name, help: help, kind: KindHistogram, vec: newVec(labels, func() any { return newHistogram(bounds) })})
	return &HistogramVec{fam.vec}
}

// OnScrape registers f to run at the start of every render — the place to
// refresh gauges from live state (replication lag, staleness). The
// returned cancel removes the hook; owners of finite-lifetime state MUST
// call it on close so scrapes stop touching dead objects.
func (r *Registry) OnScrape(f func()) (cancel func()) {
	r.hookMu.Lock()
	if r.hooks == nil {
		r.hooks = make(map[uint64]func())
	}
	r.nextHook++
	id := r.nextHook
	r.hooks[id] = f
	r.hookMu.Unlock()
	return func() {
		r.hookMu.Lock()
		delete(r.hooks, id)
		r.hookMu.Unlock()
	}
}

// runHooks executes the scrape hooks outside the registry lock (hooks set
// gauges, which would otherwise deadlock on registration-during-scrape).
func (r *Registry) runHooks() {
	r.hookMu.Lock()
	fns := make([]func(), 0, len(r.hooks))
	for _, f := range r.hooks {
		fns = append(fns, f)
	}
	r.hookMu.Unlock()
	for _, f := range fns {
		f()
	}
}

// ContentType is the Content-Type of the text exposition format v0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry in the Prometheus
// text exposition format. Scrape hooks run per request.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_ = r.Write(w)
	})
}

// Write renders every family, sorted by name, in the text exposition format,
// running the scrape hooks first.
func (r *Registry) Write(w io.Writer) error {
	r.runHooks()
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		fams = append(fams, fam)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, fam := range fams {
		fam.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// render writes one family: # HELP, # TYPE, then the samples.
func (f *family) render(b *strings.Builder) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(string(f.kind))
	b.WriteByte('\n')

	if f.vec != nil {
		for _, ch := range f.vec.sortedChildren() {
			switch f.kind {
			case KindCounter:
				writeSample(b, f.name, ch.labelStr, float64(ch.metric.(*Counter).Value()), true)
			case KindGauge:
				writeSample(b, f.name, ch.labelStr, ch.metric.(*Gauge).Value(), false)
			case KindHistogram:
				renderHistogram(b, f.name, ch.labelStr, ch.metric.(*Histogram))
			}
		}
		return
	}
	switch {
	case f.fn != nil:
		writeSample(b, f.name, "", f.fn(), f.kind == KindCounter)
	case f.counter != nil:
		writeSample(b, f.name, "", float64(f.counter.Value()), true)
	case f.gauge != nil:
		writeSample(b, f.name, "", f.gauge.Value(), false)
	case f.hist != nil:
		renderHistogram(b, f.name, "", f.hist)
	}
}

// renderHistogram writes the _bucket/_sum/_count triplet of one histogram
// (child). labelStr is the pre-rendered label body without braces ("" for
// the unlabeled case).
func renderHistogram(b *strings.Builder, name, labelStr string, h *Histogram) {
	cum, count, sum := h.snapshot()
	for i, bound := range h.upper {
		le := formatFloat(bound)
		writeSample(b, name+"_bucket", joinLabels(labelStr, `le="`+le+`"`), float64(cum[i]), true)
	}
	writeSample(b, name+"_bucket", joinLabels(labelStr, `le="+Inf"`), float64(count), true)
	writeSample(b, name+"_sum", labelStr, sum, false)
	writeSample(b, name+"_count", labelStr, float64(count), true)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// writeSample emits one sample line. integral renders whole-valued samples
// without an exponent so counters read naturally.
func writeSample(b *strings.Builder, name, labelStr string, v float64, integral bool) {
	b.WriteString(name)
	if labelStr != "" {
		b.WriteByte('{')
		b.WriteString(labelStr)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	if integral && v == float64(uint64(v)) {
		b.WriteString(strconv.FormatUint(uint64(v), 10))
	} else {
		b.WriteString(formatFloat(v))
	}
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// checkName panics on a family name the exposition grammar (or the repo's
// own conventions) would reject; catching it at registration turns a silent
// scrape-time corruption into an immediate test failure.
func checkName(name string) {
	if name == "" {
		panic("metrics: empty family name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid family name %q", name))
		}
	}
}
