package txtrace

import "testing"

// BenchmarkRingRecord prices one armed Record of an access event: the
// store into the pre-allocated ring and its wall-clock stamp. The ring
// wraps every 1024 events, so the drop count's update is in the price.
func BenchmarkRingRecord(b *testing.B) {
	r := NewRecorder(1 << 10).NewRing("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(KindRead, uint64(i), uint64(i), 0)
	}
}
