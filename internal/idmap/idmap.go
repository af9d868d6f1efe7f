// Package idmap maps arbitrary object identifiers (user names, URLs, sparse
// 64-bit ids, ...) onto the dense integer ids in [0, m) that the S-Profile
// core requires.
//
// The paper assumes "for any m distinct objects, we can map them into the
// integers from 1 to m as ids"; this package is that mapping. It supports
// recycling: when an object is known to be dead (for example its frequency
// returned to zero and it left the sliding window) its dense id can be
// released and reused by a later object, so the profile capacity m bounds the
// number of *concurrently tracked* objects rather than the total number of
// distinct objects ever seen.
//
// Two implementations: Mapper is the single-goroutine original; Striped is
// its concurrent counterpart, hash-striped so acquires and releases on
// different stripes never share a lock.
package idmap

import (
	"errors"
	"fmt"

	"sprofile/internal/core"
)

// ErrFull is returned by Acquire when every dense id is in use. It resolves
// to the taxonomy root core.ErrCapExceeded via errors.Is.
var ErrFull = core.Tagged(core.ErrCapExceeded, "idmap: all dense ids are in use")

// ErrUnknownKey is returned by Release and DenseID when the key has no
// mapping.
var ErrUnknownKey = errors.New("idmap: key has no dense id")

// ErrDuplicateKey is returned by StripeTxn.Load when its keys list one key
// twice.
var ErrDuplicateKey = errors.New("idmap: key listed twice")

// Mapper assigns dense ids in [0, cap) to keys of type K. The zero value is
// not usable; call New. A Mapper is not safe for concurrent use.
//
// It is a one-stripe Striped: ids are handed out low-first (never-used ids
// first, then released ones, last released first), so the id→key table
// holds chunks only for the most keys held at once, and the keys' bytes
// live in pages; see Striped for the per-key cost.
type Mapper[K ~string] struct {
	s *Striped[K]
}

// New returns a Mapper that can hold up to capacity concurrent keys.
func New[K ~string](capacity int) (*Mapper[K], error) {
	if capacity < 0 {
		return nil, fmt.Errorf("idmap: negative capacity %d", capacity)
	}
	s, err := NewStriped[K](capacity, 1)
	if err != nil {
		return nil, err
	}
	return &Mapper[K]{s: s}, nil
}

// MustNew is New for callers with a known-good capacity; it panics on error.
func MustNew[K ~string](capacity int) *Mapper[K] {
	m, err := New[K](capacity)
	if err != nil {
		panic(err)
	}
	return m
}

// Cap returns the maximum number of concurrently mapped keys.
func (m *Mapper[K]) Cap() int { return m.s.Cap() }

// Len returns the number of keys currently mapped.
func (m *Mapper[K]) Len() int { return m.s.Len() }

// Acquire returns the dense id for key, assigning a new one if the key is not
// yet mapped. isNew reports whether the id was freshly assigned. When every
// id is taken, Acquire returns ErrFull.
func (m *Mapper[K]) Acquire(key K) (id int, isNew bool, err error) { return m.s.Acquire(key) }

// DenseID returns the dense id of key without assigning one.
func (m *Mapper[K]) DenseID(key K) (int, error) { return m.s.DenseID(key) }

// Contains reports whether key currently has a dense id.
func (m *Mapper[K]) Contains(key K) bool { return m.s.Contains(key) }

// Key returns the key mapped to the dense id.
func (m *Mapper[K]) Key(id int) (K, bool) { return m.s.Key(id) }

// Release frees the dense id held by key so it can be reused. Callers must
// ensure the corresponding profile frequency is back to its neutral value
// before releasing, otherwise the recycled id inherits the old frequency.
func (m *Mapper[K]) Release(key K) (int, error) { return m.s.Release(key) }

// Keys returns every currently mapped key; the order is unspecified.
func (m *Mapper[K]) Keys() []K { return m.s.Keys() }

// Range calls fn for every (key, dense id) pair until fn returns false. fn
// may read the Mapper but must not change it.
func (m *Mapper[K]) Range(fn func(key K, id int) bool) {
	m.s.rangeStripe(&m.s.stripes[0], func(key []byte, id int) bool { return fn(K(key), id) })
}
