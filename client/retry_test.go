package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sprofile"
)

// stubServer always answers the configured error document, counting hits.
type stubServer struct {
	status     int
	code       string
	retryAfter string
	hits       atomic.Int32
}

func (s *stubServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.hits.Add(1)
	if s.retryAfter != "" {
		w.Header().Set("Retry-After", s.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(s.status)
	json.NewEncoder(w).Encode(map[string]string{"error": "induced", "code": s.code})
}

// TestRetryPolicyTable pins the full retry decision matrix: which wire codes
// each of the read and write paths retries, and which taxonomy sentinel each
// code resolves to across the wire.
func TestRetryPolicyTable(t *testing.T) {
	const attempts = 3
	cases := []struct {
		name       string
		read       bool
		status     int
		code       string
		retryAfter string
		wantHits   int32
		wantErr    error
	}{
		// Degraded is retryable for reads only: a degraded node still serves
		// reads, so the code reaching a read means a transient race — but a
		// write may land on a node that stays degraded indefinitely.
		{"degraded read retries", true, http.StatusServiceUnavailable, "degraded", "1", attempts, sprofile.ErrDegraded},
		{"degraded write does not retry", false, http.StatusServiceUnavailable, "degraded", "1", 1, sprofile.ErrDegraded},
		{"shed read retries", true, http.StatusServiceUnavailable, "shed", "1", attempts, sprofile.ErrShed},
		{"shed write does not retry", false, http.StatusServiceUnavailable, "shed", "1", 1, sprofile.ErrShed},
		{"429 read retries", true, http.StatusTooManyRequests, "", "1", attempts, nil},
		{"429 write does not retry", false, http.StatusTooManyRequests, "", "1", 1, nil},
		{"read_only is not same-node retryable", true, http.StatusServiceUnavailable, "read_only", "", 1, sprofile.ErrReadOnly},
		{"stale_read is not same-node retryable", true, http.StatusServiceUnavailable, "stale_read", "", 1, sprofile.ErrStaleRead},
		{"plain 503 read retries", true, http.StatusServiceUnavailable, "internal", "", attempts, nil},
		{"bad request never retries", true, http.StatusBadRequest, "bad_request", "", 1, nil},
		{"wal_append write does not retry", false, http.StatusInternalServerError, "wal_append", "", 1, sprofile.ErrWALAppend},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ss := &stubServer{status: tc.status, code: tc.code, retryAfter: tc.retryAfter}
			ts := httptest.NewServer(ss)
			defer ts.Close()
			c, err := New(ts.URL, WithRetry(RetryPolicy{
				MaxAttempts: attempts,
				BaseDelay:   time.Millisecond,
				MaxDelay:    2 * time.Millisecond, // caps any Retry-After hint, keeping the test fast
			}))
			if err != nil {
				t.Fatal(err)
			}
			if tc.read {
				_, err = c.Query(context.Background(), sprofile.KeyedQuery[string]{Summary: true})
			} else {
				err = c.Add(context.Background(), "x")
			}
			if err == nil {
				t.Fatalf("request against a permanently failing server succeeded")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.wantErr)
			}
			if got := ss.hits.Load(); got != tc.wantHits {
				t.Fatalf("server hit %d times, want %d", got, tc.wantHits)
			}
			var ae *APIError
			if !errors.As(err, &ae) {
				t.Fatalf("err %v carries no *APIError", err)
			}
			if tc.retryAfter != "" && ae.RetryAfter != time.Second {
				t.Fatalf("APIError.RetryAfter = %s, want 1s (from the header)", ae.RetryAfter)
			}
		})
	}
}

// TestNextDelayHonorsRetryAfter pins the backoff arithmetic: the server hint
// raises the policy delay, and the policy cap bounds the hint.
func TestNextDelayHonorsRetryAfter(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 5 * time.Second}
	cases := []struct {
		name     string
		err      error
		min, max time.Duration
	}{
		{"no hint keeps the jittered policy delay", &APIError{StatusCode: 503}, 5 * time.Millisecond, 10 * time.Millisecond},
		{"hint above the delay wins", &APIError{StatusCode: 503, RetryAfter: time.Second}, time.Second, time.Second},
		{"hint above MaxDelay is capped", &APIError{StatusCode: 503, RetryAfter: time.Minute}, 5 * time.Second, 5 * time.Second},
		{"non-API errors keep the policy delay", errors.New("conn reset"), 5 * time.Millisecond, 10 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				d := p.nextDelay(0, tc.err)
				if d < tc.min || d > tc.max {
					t.Fatalf("nextDelay = %s, want within [%s, %s]", d, tc.min, tc.max)
				}
			}
		})
	}
}

// TestRetryWaitsForRetryAfter proves the hint is actually waited out end to
// end, not just computed: with a generous policy cap, two attempts separated
// by a Retry-After of one second take at least a second.
func TestRetryWaitsForRetryAfter(t *testing.T) {
	ss := &stubServer{status: http.StatusServiceUnavailable, code: "shed", retryAfter: "1"}
	ts := httptest.NewServer(ss)
	defer ts.Close()
	c, err := New(ts.URL, WithRetry(RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Query(context.Background(), sprofile.KeyedQuery[string]{Summary: true}); err == nil {
		t.Fatal("permanently shedding server answered")
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("two attempts took %s; the 1s Retry-After hint was not honored", elapsed)
	}
	if got := ss.hits.Load(); got != 2 {
		t.Fatalf("server hit %d times, want 2", got)
	}
}
