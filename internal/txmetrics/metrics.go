// Package txmetrics is the live-export side of the observability
// layer: it turns the engine's end-of-run statistics into something a
// running process can serve while the workload is still in flight.
//
// The runtimes' stats shards are single-owner by design — reading a
// live shard is a data race. What IS safe to read mid-run is the
// mutex-guarded runtime aggregate (Runtime.Stats), fed whenever a
// thread passes a Sync boundary, and the trace recorder's atomic drop
// counters. A Publisher samples those through caller-registered Source
// functions, flattens counters and histogram quantiles into one
// key→value map, and exposes it three ways:
//
//   - expvar: Publish registers the map as an expvar.Func, so the
//     standard /debug/vars endpoint serves it as JSON;
//   - HTTP: Serve binds a listener and serves the default mux, which
//     carries /debug/vars (expvar) and /debug/pprof (net/http/pprof —
//     worker goroutines are pprof-labeled by internal/sched, so
//     profiles attribute samples per user-thread);
//   - deltas: DeltaLine formats the change in every counter since the
//     previous call as a one-line summary for periodic printing.
//
// The poll path allocates freely: it runs on the observer's goroutine
// at human timescales, never on a transaction hot path.
package txmetrics

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // register /debug/pprof on the default mux
	"sort"
	"strings"
	"sync"

	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// Snapshot is one source's point-in-time contribution: named counters
// and named histograms. Histograms are flattened into .p50/.p90/.p99/
// .max/.count rows by the publisher. .count is the histogram's number of
// observations: for the runtimes' commitLatency and restartLatency,
// which time one attempt in 64 per descriptor, the number of sampled
// attempts.
type Snapshot struct {
	Counters map[string]uint64
	Hists    map[string]txstats.Hist
}

// Source produces a snapshot on demand. It is called from observer
// goroutines (HTTP handlers, the delta ticker), so it must be safe to
// call concurrently with the run it observes: sample mutex-guarded
// aggregates like Runtime.Stats, never a live per-thread shard.
type Source func() Snapshot

// Publisher samples registered sources into a flat metrics map.
type Publisher struct {
	mu      sync.Mutex
	names   []string // registration order, for stable output
	sources map[string]Source
	trace   *txtrace.Recorder
	prev    map[string]uint64 // counter values at the last DeltaLine
}

// New returns an empty publisher.
func New() *Publisher {
	return &Publisher{sources: map[string]Source{}, prev: map[string]uint64{}}
}

// AddSource registers src under name; its keys appear as "name.key".
// Re-registering a name replaces the source.
func (p *Publisher) AddSource(name string, src Source) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.sources[name]; !ok {
		p.names = append(p.names, name)
	}
	p.sources[name] = src
}

// SetTrace attaches a flight recorder whose ring count and summed drop
// counter are exported as trace.rings and trace.drops. Drop counters
// are atomics, so sampling them live is safe even while rings record.
func (p *Publisher) SetTrace(rec *txtrace.Recorder) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trace = rec
}

// counters samples every source's counters (plus trace drops) into one
// flat map. Histograms are excluded: deltas over quantiles are
// meaningless.
func (p *Publisher) counters() map[string]uint64 {
	p.mu.Lock()
	names := append([]string(nil), p.names...)
	srcs := make(map[string]Source, len(p.sources))
	for k, v := range p.sources {
		srcs[k] = v
	}
	trace := p.trace
	p.mu.Unlock()

	out := map[string]uint64{}
	for _, name := range names {
		for k, v := range srcs[name]().Counters {
			out[name+"."+k] = v
		}
	}
	if trace != nil {
		out["trace.drops"] = trace.Drops()
		out["trace.rings"] = uint64(len(trace.Rings()))
	}
	return out
}

// Snapshot flattens every source into "source.key" rows: counters as
// uint64, histograms as quantile/max/count rows. The result is fresh
// on every call — this is what expvar serves.
func (p *Publisher) Snapshot() map[string]any {
	p.mu.Lock()
	names := append([]string(nil), p.names...)
	srcs := make(map[string]Source, len(p.sources))
	for k, v := range p.sources {
		srcs[k] = v
	}
	trace := p.trace
	p.mu.Unlock()

	out := map[string]any{}
	for _, name := range names {
		s := srcs[name]()
		for k, v := range s.Counters {
			out[name+"."+k] = v
		}
		for k, h := range s.Hists {
			base := name + "." + k
			out[base+".count"] = h.Total()
			if h.Total() == 0 {
				continue
			}
			out[base+".p50"] = h.Quantile(0.50)
			out[base+".p90"] = h.Quantile(0.90)
			out[base+".p99"] = h.Quantile(0.99)
			out[base+".max"] = h.Max()
		}
	}
	if trace != nil {
		out["trace.drops"] = trace.Drops()
		out["trace.rings"] = uint64(len(trace.Rings()))
	}
	return out
}

// Publish registers the publisher with the process-global expvar
// registry under name. expvar panics on duplicate names, so call it
// once per process (tests use distinct names).
func (p *Publisher) Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return p.Snapshot() }))
}

// DeltaLine samples the counters and formats every one that changed
// since the previous call as "key=+n", sorted by key. The first call
// baselines against zero, so it reports absolute values. Returns ""
// when nothing moved.
func (p *Publisher) DeltaLine() string {
	cur := p.counters()
	p.mu.Lock()
	prev := p.prev
	p.prev = cur
	p.mu.Unlock()

	keys := make([]string, 0, len(cur))
	for k := range cur {
		if cur[k] != prev[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=+%d", k, cur[k]-prev[k])
	}
	return b.String()
}

// Serve binds addr and serves the default HTTP mux in the background:
// /debug/vars (expvar, including everything Published) and /debug/pprof.
// It returns the bound address, so addr may use port 0.
func Serve(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = http.Serve(l, nil) }()
	return l.Addr().String(), nil
}
