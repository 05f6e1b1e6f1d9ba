// Package xrand is the tiny PRNG of the per-context probes of
// internal/cm (randomized backoff, tie coin flips) and of core's
// relaunch jitter: a lazily splitmix-seeded xorshift64 whose state lives
// in its owner, so drawing randomness never touches shared state after
// the first call.
package xrand

import "sync/atomic"

// seedCtr hands every state its own splitmix-derived stream.
var seedCtr atomic.Uint64

// Next steps the xorshift64 generator at state, seeding it on first
// use (zero state). The returned value — and the state left behind —
// is never 0.
func Next(state *uint64) uint64 {
	if *state == 0 {
		z := seedCtr.Add(1) * 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		*state = z | 1
	}
	*state ^= *state << 13
	*state ^= *state >> 7
	*state ^= *state << 17
	return *state
}

// Splitmix steps the splitmix64 generator at state. Unlike Next —
// which lazily replaces a zero state with a draw from the
// process-global seed counter, making its stream depend on seeding
// order — Splitmix is a pure function of the caller's state, which is
// what the stress-style workload generators (cmd/tlstm-stress, the
// core clock/reclamation soak tests) need for reproducible runs.
func Splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
