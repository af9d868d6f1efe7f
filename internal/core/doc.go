// Package core implements S-Profile, the O(1)-per-update data structure for
// profiling dynamic arrays with finite values described in
//
//	Dingcheng Yang, Wenjian Yu, Junhui Deng, Shenghua Liu.
//	"Optimal Algorithm for Profiling Dynamic Arrays with Finite Values."
//	EDBT 2019 (arXiv:1812.05306).
//
// A Profile tracks the frequencies of up to m distinct objects under a log
// stream of (object, add|remove) events, each changing one frequency by
// exactly ±1. It maintains a conceptual ascending-sorted frequency array T
// through three permutation/pointer arrays and a set of "blocks" (maximal
// runs of equal frequency in T). Every update touches a constant number of
// array cells and at most two blocks, so the worst-case cost per event is
// O(1) and the space is O(m). The arrays need not cover every id: a profile
// from NewLoaded holds only the ids in use and grows geometrically, so the
// first update of an id costs amortised O(1) more and the space follows the
// largest id in use.
//
// With the profile maintained, order-statistic queries over the frequency
// multiset — mode, minimum, K-th largest, median, arbitrary quantiles,
// top-K, majority and the full frequency distribution — are answered without
// scanning the frequencies.
//
// The package is deliberately allocation-free on the hot path: blocks live in
// a slab with an intrusive free list, and updates never allocate once the
// slab has grown to its working size.
package core
