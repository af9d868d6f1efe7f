package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"sprofile"
	"sprofile/internal/server"
)

func newClient(t *testing.T, capacity int) *Client {
	t.Helper()
	s, err := server.New(server.Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidatesURL(t *testing.T) {
	if _, err := New("not a url"); err == nil {
		t.Fatal("New accepted a garbage URL")
	}
	if _, err := New("/just/a/path"); err == nil {
		t.Fatal("New accepted a URL without a host")
	}
}

func TestIngestAndSingleStats(t *testing.T) {
	c := newClient(t, 16)
	ctx := context.Background()

	applied, err := c.SendEvents(ctx, []Event{
		{Object: "a", Action: ActionAdd},
		{Object: "a", Action: ActionAdd},
		{Object: "b", Action: ActionAdd},
	})
	if err != nil || applied != 3 {
		t.Fatalf("SendEvents = (%d, %v)", applied, err)
	}
	if err := c.Add(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(ctx, "b"); err != nil {
		t.Fatal(err)
	}

	// Each statistic is asked on its own, one Query per statistic.
	query := func(q sprofile.KeyedQuery[string]) sprofile.KeyedQueryResult[string] {
		t.Helper()
		res, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("Query(%+v): %v", q, err)
		}
		return res
	}
	if mode := query(sprofile.KeyedQuery[string]{Mode: true}).Mode; mode == nil || mode.Key != "a" || mode.Frequency != 3 || mode.Ties != 1 {
		t.Fatalf("mode = %+v", mode)
	}
	if f, err := count(ctx, c, "a"); err != nil || f != 3 {
		t.Fatalf("count(a) = (%d, %v)", f, err)
	}
	if f, err := count(ctx, c, "ghost"); err != nil || f != 0 {
		t.Fatalf("count(ghost) = (%d, %v)", f, err)
	}
	if top := query(sprofile.KeyedQuery[string]{TopK: 2}).TopK; len(top) != 2 || top[0].Key != "a" {
		t.Fatalf("top_k = %+v", top)
	}
	if query(sprofile.KeyedQuery[string]{Min: true}).Min == nil {
		t.Fatal("min missing")
	}
	if query(sprofile.KeyedQuery[string]{Median: true}).Median == nil {
		t.Fatal("median missing")
	}
	if qs := query(sprofile.KeyedQuery[string]{Quantiles: []float64{1}}).Quantiles; len(qs) != 1 || qs[0].Frequency != 3 {
		t.Fatalf("quantiles = %+v", qs)
	}
	if query(sprofile.KeyedQuery[string]{Majority: true}).Majority == nil {
		t.Fatal("majority missing")
	}
	if dist := query(sprofile.KeyedQuery[string]{Distribution: true}).Distribution; len(dist) == 0 {
		t.Fatalf("distribution = %+v", dist)
	}
	res := query(sprofile.KeyedQuery[string]{Summary: true})
	if res.Summary == nil || res.Summary.Total != 3 || res.Tracked == nil || *res.Tracked != 2 {
		t.Fatalf("summary = %+v, tracked = %v", res.Summary, res.Tracked)
	}
	if h, err := c.Healthz(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("Healthz = (%+v, %v)", h, err)
	}
}

func TestBulkIngest(t *testing.T) {
	c := newClient(t, 64)
	ctx := context.Background()

	events := make([]Event, 0, 300)
	for i := 0; i < 100; i++ {
		events = append(events,
			Event{Object: "hot", Action: ActionAdd},
			Event{Object: "warm", Action: ActionAdd},
			Event{Object: "hot", Action: ActionAdd})
	}
	applied, err := c.BulkIngest(ctx, events)
	if err != nil || applied != 300 {
		t.Fatalf("BulkIngest = (%d, %v)", applied, err)
	}
	if f, err := count(ctx, c, "hot"); err != nil || f != 200 {
		t.Fatalf("count(hot) = (%d, %v)", f, err)
	}

	applied, err = c.BulkIngestReader(ctx, strings.NewReader(
		"{\"object\":\"cool\",\"action\":\"add\"}\n\n{\"object\":\"cool\",\"action\":\"add\"}\n"))
	if err != nil || applied != 2 {
		t.Fatalf("BulkIngestReader = (%d, %v)", applied, err)
	}
}

func TestCompositeQuery(t *testing.T) {
	c := newClient(t, 16)
	ctx := context.Background()

	if _, err := c.BulkIngest(ctx, []Event{
		{Object: "a", Action: ActionAdd}, {Object: "a", Action: ActionAdd}, {Object: "a", Action: ActionAdd},
		{Object: "b", Action: ActionAdd}, {Object: "b", Action: ActionAdd},
		{Object: "c", Action: ActionAdd},
	}); err != nil {
		t.Fatal(err)
	}

	res, err := c.Query(ctx, sprofile.KeyedQuery[string]{
		Count:     []string{"a", "nobody"},
		Mode:      true,
		TopK:      2,
		Quantiles: []float64{0.5, 1},
		Summary:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode == nil || res.Mode.Key != "a" || res.Mode.Frequency != 3 {
		t.Fatalf("mode = %+v", res.Mode)
	}
	if len(res.Counts) != 2 || res.Counts[0].Frequency != 3 || res.Counts[1].Frequency != 0 {
		t.Fatalf("counts = %+v", res.Counts)
	}
	if len(res.TopK) != 2 || res.TopK[0].Key != "a" || res.TopK[1].Key != "b" {
		t.Fatalf("top_k = %+v", res.TopK)
	}
	if len(res.Quantiles) != 2 || res.Quantiles[1].Frequency != 3 {
		t.Fatalf("quantiles = %+v", res.Quantiles)
	}
	if res.Summary == nil || res.Summary.Total != 6 || res.Tracked == nil || *res.Tracked != 3 {
		t.Fatalf("summary = %+v, tracked = %v", res.Summary, res.Tracked)
	}
	if res.Min != nil || res.Median != nil || res.Majority != nil || res.Distribution != nil {
		t.Fatalf("unrequested fields were filled: %+v", res)
	}
}

// count reads one key's count with Client.Query.
func count(ctx context.Context, c *Client, key string) (int64, error) {
	res, err := c.Query(ctx, sprofile.KeyedQuery[string]{Count: []string{key}})
	if err != nil {
		return 0, err
	}
	return res.Counts[0].Frequency, nil
}

// TestErrorTaxonomyAcrossTheWire pins that errors.Is against the sprofile
// taxonomy works on client-side errors, and that the full APIError stays
// inspectable.
func TestErrorTaxonomyAcrossTheWire(t *testing.T) {
	c := newClient(t, 4)
	ctx := context.Background()

	// Removing an unknown key → ErrUnknownKey via the wire code.
	err := c.Remove(ctx, "ghost")
	if !errors.Is(err, sprofile.ErrUnknownKey) {
		t.Fatalf("Remove(ghost) = %v, want errors.Is ErrUnknownKey", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 404 || ae.Code != "unknown_key" {
		t.Fatalf("APIError = %+v", ae)
	}

	// Removing a known key at frequency zero → ErrStrictViolation.
	if err := c.Add(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	err = c.Remove(ctx, "a")
	if !errors.Is(err, sprofile.ErrStrictViolation) {
		t.Fatalf("strict remove = %v, want errors.Is ErrStrictViolation", err)
	}

	// A malformed composite query resolves to both of its classes, exactly
	// like the local error does (Query validation always wraps an
	// out-of-range argument alongside ErrInvalidQuery).
	_, err = c.Query(ctx, sprofile.KeyedQuery[string]{KthLargest: []int{99}})
	if !errors.Is(err, sprofile.ErrInvalidQuery) || !errors.Is(err, sprofile.ErrOutOfRange) {
		t.Fatalf("bad query = %v, want errors.Is ErrInvalidQuery and ErrOutOfRange", err)
	}

	// Overflowing the key capacity → ErrCapExceeded. A fresh server with no
	// idle keys guarantees nothing can be recycled, whatever the stripe
	// geometry.
	full := newClient(t, 2)
	for _, k := range []string{"k1", "k2"} {
		if err := full.Add(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	err = full.Add(ctx, "k3")
	if !errors.Is(err, sprofile.ErrCapExceeded) {
		t.Fatalf("overflow add = %v, want errors.Is ErrCapExceeded", err)
	}

	// An invalid event rejects its whole batch: nothing is applied, and the
	// APIError says so.
	applied, err := c.SendEvents(ctx, []Event{
		{Object: "k1", Action: ActionAdd},
		{Object: "k2", Action: "bogus"},
	})
	if err == nil || applied != 0 {
		t.Fatalf("partial batch = (%d, %v), want 0 applied and an error", applied, err)
	}
	if !errors.Is(err, sprofile.ErrInvalidAction) {
		t.Fatalf("bogus action = %v, want errors.Is ErrInvalidAction", err)
	}
}

// TestRejectedEventsUnwrapAcrossTheWire pins that both ingest routes reject
// an invalid event with its taxonomy code, so errors.Is resolves the same
// class whether the batch went through SendEvents or BulkIngest, and that
// nothing of the rejected batch is applied.
func TestRejectedEventsUnwrapAcrossTheWire(t *testing.T) {
	c := newClient(t, 4)
	ctx := context.Background()
	send := map[string]func(context.Context, []Event) (int, error){
		"SendEvents": c.SendEvents,
		"BulkIngest": c.BulkIngest,
	}
	for _, tc := range []struct {
		name  string
		event Event
		want  error
	}{
		{"bad action", Event{Object: "k", Action: "sideways"}, sprofile.ErrInvalidAction},
		{"empty object", Event{Object: "", Action: ActionAdd}, sprofile.ErrOutOfRange},
	} {
		for route, fn := range send {
			applied, err := fn(ctx, []Event{{Object: "k", Action: ActionAdd}, tc.event})
			var ae *APIError
			if !errors.Is(err, tc.want) || !errors.As(err, &ae) || ae.StatusCode != 400 || applied != 0 {
				t.Errorf("%s with %s = (%d, %v), want 400 and errors.Is %v with 0 applied", route, tc.name, applied, err, tc.want)
			}
		}
	}
	if f, err := count(ctx, c, "k"); err != nil || f != 0 {
		t.Fatalf("count(k) after rejected batches = (%d, %v), want 0", f, err)
	}
}

func TestMetricsScrape(t *testing.T) {
	c := newClient(t, 16)
	ctx := context.Background()
	if err := c.Add(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"sprofile_http_requests_total",
		"sprofile_ingest_events_total",
		"sprofile_build_info",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Fatalf("scrape missing family %s", family)
		}
	}
}
