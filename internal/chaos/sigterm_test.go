package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sprofile"
	"sprofile/internal/server"
)

// TestChaosSIGTERMMidIngest runs the real sprofiled binary, hammers it with
// concurrent writes, and delivers SIGTERM mid-ingest. The drain-ordered
// shutdown contract: the process exits 0 after draining and settling the
// data plane, and reopening its WAL directory recovers every write it ever
// acknowledged — a write racing the shutdown either completed durably or
// failed visibly, never half.
func TestChaosSIGTERMMidIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sprofiled binary")
	}

	bin := filepath.Join(t.TempDir(), "sprofiled")
	build := exec.Command("go", "build", "-o", bin, "sprofile/cmd/sprofiled")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build sprofiled: %v\n%s", err, out)
	}

	// Reserve a port; the gap between closing the probe listener and the
	// daemon binding it is a benign test-only race.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	walDir := filepath.Join(t.TempDir(), "wal")
	var logBuf bytes.Buffer
	daemon := exec.Command(bin,
		"-addr", addr,
		"-wal", walDir,
		"-capacity", "4096",
		"-drain-timeout", "5s",
	)
	daemon.Stdout = &logBuf
	daemon.Stderr = &logBuf
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()

	base := "http://" + addr
	waitUp := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(waitUp) {
			t.Fatalf("daemon never came up on %s\n%s", addr, logBuf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Concurrent writers run until the process stops answering; each 200 is
	// a durability promise the reopened directory must honor.
	var mu sync.Mutex
	acked := make(map[string]int64)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				key := fmt.Sprintf("writer%d-k%d", w, i%8)
				body := fmt.Sprintf(`[{"object":%q,"action":"add"}]`, key)
				resp, err := hc.Post(base+"/v1/events", "application/json", strings.NewReader(body))
				if err != nil {
					return // the listener is gone; drain has begun or finished
				}
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					mu.Lock()
					acked[key]++
					mu.Unlock()
				}
			}
		}(w)
	}

	// Let ingest run, then terminate mid-flight.
	time.Sleep(300 * time.Millisecond)
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", err, logBuf.String())
		}
	case <-time.After(15 * time.Second):
		daemon.Process.Kill()
		t.Fatalf("daemon did not exit within 15s of SIGTERM\n%s", logBuf.String())
	}
	wg.Wait()

	logs := logBuf.String()
	for _, want := range []string{"draining", "stopped"} {
		if !strings.Contains(logs, want) {
			t.Errorf("daemon log missing %q:\n%s", want, logs)
		}
	}
	// The settle phase takes a final checkpoint, so restart recovers from a
	// snapshot instead of replaying the whole log.
	if entries, err := os.ReadDir(walDir); err == nil {
		var hasSnap bool
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".sks") || strings.Contains(e.Name(), "snap") {
				hasSnap = true
			}
		}
		if !hasSnap {
			names := make([]string, 0, len(entries))
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Logf("no snapshot file after shutdown (dir: %v); final checkpoint may have been skipped", names)
		}
	}

	// Reopen the directory: every acknowledged write must be there.
	reborn, err := server.New(server.Config{Capacity: 4096, WALPath: walDir})
	if err != nil {
		t.Fatalf("reopen after SIGTERM: %v", err)
	}
	defer reborn.Close()
	rts := httptest.NewServer(reborn)
	defer rts.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged before SIGTERM; the test proved nothing")
	}
	total := int64(0)
	for key, want := range acked {
		body, _ := json.Marshal(sprofile.KeyedQuery[string]{Count: []string{key}})
		resp, err := http.Post(rts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out sprofile.KeyedQueryResult[string]
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("count(%s) after reopen answered %d", key, resp.StatusCode)
		}
		if f := out.Counts[0].Frequency; f < want {
			t.Errorf("count(%s) = %d after reopen, acked %d: SIGTERM lost acknowledged writes",
				key, f, want)
		}
		total += want
	}
	t.Logf("%d acknowledged writes across %d keys all survived SIGTERM", total, len(acked))
}
