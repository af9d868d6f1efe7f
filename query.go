package sprofile

import (
	"sprofile/internal/core"
)

// Query selects any subset of the profile's statistics — Count, Mode, Min,
// TopK, BottomK, KthLargest, Median, Quantiles, Majority, Distribution,
// Summary — to be answered together from ONE consistent cut of the frequency
// multiset. It is the unit of the query plane: a dashboard that needs
// Mode+TopK+Quantile issues one Query and pays one lock acquisition (or one
// merged distribution) instead of three, and can never observe the three
// statistics from three different states under concurrent ingest.
//
// Arguments are validated before anything is evaluated: a composite query
// fails whole (wrapping ErrInvalidQuery plus the offending argument's
// taxonomy class) or succeeds whole. The JSON form of Query/QueryResult is
// the wire format of the server's POST /v1/query endpoint (keyed servers use
// KeyedQuery/KeyedQueryResult, identical but key-addressed).
type Query = core.Query

// QueryResult carries the answers to exactly the statistics the Query
// selected; unrequested fields stay nil.
type QueryResult = core.QueryResult

// Extreme is a Mode or Min answer inside a QueryResult: the representative
// entry plus how many objects tie with it.
type Extreme = core.Extreme

// QuantileEntry is one Quantiles answer inside a QueryResult.
type QuantileEntry = core.QuantileEntry

// MajorityEntry is the Majority answer inside a QueryResult.
type MajorityEntry = core.MajorityEntry

// Querier is the capability of answering a composite Query atomically.
// Every variant in this package implements it, each pinning the cut its own
// way:
//
//   - *Profile evaluates in one pass (single-goroutine);
//   - *Sharded holds all shard read locks once across the whole evaluation
//     and evaluates on one view of that cut: the shard's own profile when
//     there is one shard (Synchronized), otherwise a merged view that
//     answers every rank statistic from one merged distribution;
//   - *Window and *TimeWindow answer from the windowed profile, which
//     reflects the expiry sweep of the newest push;
//   - the keyed variants answer KeyedQuery through QueryKeys (Keyed
//     single-goroutine, KeyedConcurrent from one quiesced cut).
//
// For a Profiler of unknown concrete type, use QueryProfiler, which falls
// back to a Snapshotter-based consistent cut when the capability is absent.
type Querier interface {
	Query(q Query) (QueryResult, error)
}

// KeyedQuery is the key-addressed counterpart of Query: the same statistic
// selection, with Count listing caller keys instead of dense ids. Unknown
// keys count as frequency zero, mirroring the keyed Count. It is the only
// read of a keyed profile's profile-wide statistics: select any subset and
// QueryKeys answers it from one cut.
type KeyedQuery[K comparable] struct {
	Count        []K       `json:"count,omitempty"`
	Mode         bool      `json:"mode,omitempty"`
	Min          bool      `json:"min,omitempty"`
	TopK         int       `json:"top_k,omitempty"`
	BottomK      int       `json:"bottom_k,omitempty"`
	KthLargest   []int     `json:"kth_largest,omitempty"`
	Median       bool      `json:"median,omitempty"`
	Quantiles    []float64 `json:"quantiles,omitempty"`
	Majority     bool      `json:"majority,omitempty"`
	Distribution bool      `json:"distribution,omitempty"`
	Summary      bool      `json:"summary,omitempty"`
}

// dense translates the selection onto the underlying dense-id profile.
// Count is handled separately by the keyed implementations (ids must be
// resolved under the same cut).
func (q KeyedQuery[K]) dense() Query {
	return Query{
		Mode:         q.Mode,
		Min:          q.Min,
		TopK:         q.TopK,
		BottomK:      q.BottomK,
		KthLargest:   q.KthLargest,
		Median:       q.Median,
		Quantiles:    q.Quantiles,
		Majority:     q.Majority,
		Distribution: q.Distribution,
		Summary:      q.Summary,
	}
}

// KeyedExtreme is a Mode or Min answer inside a KeyedQueryResult.
type KeyedExtreme[K comparable] struct {
	KeyedEntry[K]
	Ties int `json:"ties"`
}

// KeyedQuantile is one Quantiles answer inside a KeyedQueryResult.
type KeyedQuantile[K comparable] struct {
	Q float64 `json:"q"`
	KeyedEntry[K]
}

// KeyedMajority is the Majority answer inside a KeyedQueryResult.
type KeyedMajority[K comparable] struct {
	KeyedEntry[K]
	Majority bool `json:"majority"`
}

// KeyedQueryResult is the key-addressed counterpart of QueryResult: every
// entry's dense id has been resolved back to its key under the same cut the
// statistics were read from. A slot bound to no key (frequency zero)
// answers with the zero value of K, so TopK and BottomK on a profile
// tracking fewer keys than asked for can list such entries.
type KeyedQueryResult[K comparable] struct {
	Counts       []KeyedEntry[K]    `json:"counts,omitempty"`
	Mode         *KeyedExtreme[K]   `json:"mode,omitempty"`
	Min          *KeyedExtreme[K]   `json:"min,omitempty"`
	TopK         []KeyedEntry[K]    `json:"top_k,omitempty"`
	BottomK      []KeyedEntry[K]    `json:"bottom_k,omitempty"`
	KthLargest   []KeyedEntry[K]    `json:"kth_largest,omitempty"`
	Median       *KeyedEntry[K]     `json:"median,omitempty"`
	Quantiles    []KeyedQuantile[K] `json:"quantiles,omitempty"`
	Majority     *KeyedMajority[K]  `json:"majority,omitempty"`
	Distribution []FreqCount        `json:"distribution,omitempty"`
	Summary      *Summary           `json:"summary,omitempty"`
	// Tracked is the number of keys holding a dense id (the Tracked getter),
	// read from the same cut as Summary and set exactly when Summary is.
	Tracked *int `json:"tracked,omitempty"`

	// Replication, when the query was answered by a replicated server,
	// carries the staleness watermark of the node that answered: the WAL
	// position it had applied and a wall-clock bound on how far behind the
	// leader the answer may be. Nil outside a replicated deployment.
	Replication *ReplicationStatus `json:"replication,omitempty"`
}

// QueryProfiler answers a composite query against any Profiler. When p
// offers the Querier capability (every variant in this package does), the
// query is answered atomically by it; otherwise, when p offers Snapshotter,
// the query is answered from one point-in-time snapshot — still a consistent
// cut, at O(m) copy cost; as a last resort the getters are called one by
// one, which is only consistent if nothing updates p concurrently.
func QueryProfiler(p Profiler, q Query) (QueryResult, error) {
	if qr, ok := p.(Querier); ok {
		return qr.Query(q)
	}
	if s, ok := p.(Snapshotter); ok {
		// Validate against the live profile first so argument errors do not
		// pay for a snapshot.
		if err := q.Validate(p.Cap()); err != nil {
			return QueryResult{}, err
		}
		snap, err := s.Snapshot()
		if err != nil {
			return QueryResult{}, err
		}
		return snap.Query(q)
	}
	return core.EvalQuery(p, q)
}
