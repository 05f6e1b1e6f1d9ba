package txrt_test

import (
	"testing"

	"tlstm/internal/tm"
	"tlstm/internal/txrt"
	"tlstm/internal/txstats"
)

// The latency-sampling contract: a descriptor times one attempt in 64,
// its first attempt included, and only a timed attempt lands in
// CommitLatency or RestartLatency. Attempts stays exact.

// samplePeriod is the driver's sampling period, as the contract states it.
const samplePeriod = 64

// samplingRuntimes is stm, core's solo task and tl2 (tl2's descriptors
// are pooled), from readSideRuntimes.
func samplingRuntimes() []parityRuntime {
	var rts []parityRuntime
	for _, rt := range readSideRuntimes() {
		switch rt.name {
		case "stm", "core", "tl2":
			rts = append(rts, rt)
		default:
			rt.close()
		}
	}
	return rts
}

// sampleModel mirrors the driver's sampling from the body's side: one
// attempt counter per descriptor, keyed by the descriptor the body runs
// on, the helper's included (tl2's pool hands one descriptor to both
// threads). The map keeps every descriptor it saw alive, so one the pool
// dropped (as it does at random under the race detector) cannot come
// back at the same address with a fresh counter.
type sampleModel struct {
	n                 map[tm.Tx]int
	commits, restarts uint64 // sampled attempts, by outcome
	attempts          txstats.Hist
	aborts            int
}

func newSampleModel() *sampleModel { return &sampleModel{n: map[tm.Tx]int{}} }

// run runs one transaction on rt that reads x and writes y, and forces
// its first aborts attempts to abort: between the read and the commit a
// helper commits x, so the commit's read validation fails.
func (m *sampleModel) run(t *testing.T, rt parityRuntime, x, y tm.Addr, aborts int) {
	t.Helper()
	tries := 0
	rt.atomic(func(tx retryTx) {
		m.n[tx]++
		sampled := m.n[tx]%samplePeriod == 1
		tries++
		v := tx.Load(x)
		if tries <= aborts {
			done := make(chan struct{})
			go func() {
				defer close(done)
				rt.helper(func(tx retryTx) {
					m.n[tx]++ // a pooled descriptor may serve both threads
					tx.Store(x, tx.Load(x)+1)
				})
			}()
			<-done
			if sampled {
				m.restarts++
			}
		} else if sampled {
			m.commits++
		}
		tx.Store(y, v)
	})
	if tries != aborts+1 {
		t.Fatalf("%s: %d attempts, want %d", rt.name, tries, aborts+1)
	}
	m.attempts.Observe(tries)
	m.aborts += aborts
}

// check compares c with the model: the latency counts are the sampled
// attempts', and Attempts counts every attempt.
func (m *sampleModel) check(t *testing.T, name string, c txrt.Counters) {
	t.Helper()
	if c.CommitLatency.Total() != m.commits || c.RestartLatency.Total() != m.restarts {
		t.Errorf("%s: commitLat.count=%d restartLat.count=%d, want %d and %d",
			name, c.CommitLatency.Total(), c.RestartLatency.Total(), m.commits, m.restarts)
	}
	if c.Attempts != m.attempts {
		t.Errorf("%s: Attempts [%s], want [%s]", name, c.Attempts, m.attempts)
	}
}

func TestLatencySampledOneAttemptIn64(t *testing.T) {
	const k = 4
	for _, rt := range samplingRuntimes() {
		x, y := rt.direct.Alloc(1), rt.direct.Alloc(1)
		m := newSampleModel()
		m.run(t, rt, x, y, 0)
		if got := rt.counters().CommitLatency.Total(); got != 1 {
			t.Errorf("%s: a fresh descriptor's first commit: commitLat.count=%d, want 1", rt.name, got)
		}
		for i := 1; i < samplePeriod*k; i++ {
			m.run(t, rt, x, y, 0)
		}
		c := rt.counters()
		rt.close()
		m.check(t, rt.name, c)
		if c.Attempts.Total() != samplePeriod*k || c.RestartLatency.Total() != 0 {
			t.Errorf("%s: attempts.count=%d restartLat.count=%d, want %d and 0",
				rt.name, c.Attempts.Total(), c.RestartLatency.Total(), samplePeriod*k)
		}
		if got := c.CommitLatency.Total(); len(m.n) == 1 && (got+1 < k || got > k+1) {
			t.Errorf("%s: %d commits on one descriptor: commitLat.count=%d, want %d±1", rt.name, samplePeriod*k, got, k)
		}
	}
}

func TestLatencySampledRestarts(t *testing.T) {
	for _, rt := range samplingRuntimes() {
		x, y := rt.direct.Alloc(1), rt.direct.Alloc(1)
		m := newSampleModel()
		for _, aborts := range []int{2 * samplePeriod, 1, 2, 5} {
			m.run(t, rt, x, y, aborts)
		}
		c := rt.counters()
		rt.close()
		m.check(t, rt.name, c)
		if got := c.RestartLatency.Total(); len(m.n) == 1 && got > uint64(m.aborts/samplePeriod+1) {
			t.Errorf("%s: %d aborts on one descriptor: restartLat.count=%d, want at most %d",
				rt.name, m.aborts, got, m.aborts/samplePeriod+1)
		}
	}
}
