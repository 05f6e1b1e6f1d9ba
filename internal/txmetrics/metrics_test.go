package txmetrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"

	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

func testSource(commits *uint64, h *txstats.Hist) Source {
	return func() Snapshot {
		return Snapshot{
			Counters: map[string]uint64{"commits": *commits},
			Hists:    map[string]txstats.Hist{"commitLat": *h},
		}
	}
}

func TestSnapshotFlattensCountersAndHists(t *testing.T) {
	p := New()
	commits := uint64(7)
	var h txstats.Hist
	for i := 0; i < 100; i++ {
		h.Observe(i)
	}
	p.AddSource("core", testSource(&commits, &h))

	rec := txtrace.NewRecorder(16)
	ring := rec.NewRing("t")
	for i := 0; i < 40; i++ { // overrun a 16-slot ring: 24 drops
		ring.Record(txtrace.KindCommit, uint64(i), 0, 0)
	}
	p.SetTrace(rec)

	s := p.Snapshot()
	if got := s["core.commits"].(uint64); got != 7 {
		t.Fatalf("core.commits = %d, want 7", got)
	}
	if got := s["core.commitLat.count"].(uint64); got != 100 {
		t.Fatalf("commitLat.count = %d, want 100", got)
	}
	for _, k := range []string{"core.commitLat.p50", "core.commitLat.p90", "core.commitLat.p99", "core.commitLat.max"} {
		if _, ok := s[k]; !ok {
			t.Fatalf("snapshot missing %s: %v", k, s)
		}
	}
	if got := s["trace.drops"].(uint64); got != 24 {
		t.Fatalf("trace.drops = %d, want 24", got)
	}
	if got := s["trace.rings"].(uint64); got != 1 {
		t.Fatalf("trace.rings = %d, want 1", got)
	}
}

func TestSnapshotOmitsQuantilesOfEmptyHist(t *testing.T) {
	p := New()
	commits := uint64(0)
	var h txstats.Hist
	p.AddSource("x", testSource(&commits, &h))
	s := p.Snapshot()
	if got := s["x.commitLat.count"].(uint64); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
	if _, ok := s["x.commitLat.p50"]; ok {
		t.Fatal("empty hist must not export quantiles")
	}
}

func TestDeltaLine(t *testing.T) {
	p := New()
	commits := uint64(5)
	var h txstats.Hist
	p.AddSource("core", testSource(&commits, &h))

	if got, want := p.DeltaLine(), "core.commits=+5"; got != want {
		t.Fatalf("first DeltaLine = %q, want %q", got, want)
	}
	if got := p.DeltaLine(); got != "" {
		t.Fatalf("unchanged DeltaLine = %q, want empty", got)
	}
	commits = 12
	if got, want := p.DeltaLine(), "core.commits=+7"; got != want {
		t.Fatalf("delta = %q, want %q", got, want)
	}
}

// expvarRuns numbers TestServeExportsExpvar's runs: expvar names are
// process-global and Publish panics on a repeat, so every run (-count)
// publishes under its own.
var expvarRuns atomic.Int32

func TestServeExportsExpvar(t *testing.T) {
	name := fmt.Sprintf("tlstm-test-%d", expvarRuns.Add(1))
	p := New()
	commits := uint64(3)
	var h txstats.Hist
	h.Observe(1)
	p.AddSource("core", testSource(&commits, &h))
	p.Publish(name)

	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("invalid /debug/vars JSON: %v\n%s", err, body)
	}
	var snap map[string]any
	if err := json.Unmarshal(vars[name], &snap); err != nil {
		t.Fatalf("%s var missing or invalid: %v", name, err)
	}
	if got := snap["core.commits"].(float64); got != 3 {
		t.Fatalf("exported core.commits = %v, want 3", got)
	}
}
