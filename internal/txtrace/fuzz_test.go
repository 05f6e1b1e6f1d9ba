package txtrace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// hugeMetaDump is a 28-byte dump whose header claims 2^32−1 metadata
// entries and then breaks off: the magic, a zero start time and ring
// count, the meta count, and the first key's (zero) length.
func hugeMetaDump() []byte {
	b := append([]byte(Magic), make([]byte, 12)...)
	b = binary.LittleEndian.AppendUint32(b, 0xFFFFFFFF)
	return binary.LittleEndian.AppendUint32(b, 0)
}

// recordedDump is a well-formed dump: two rings, metadata, and events of
// several kinds.
func recordedDump(tb testing.TB) []byte {
	rec := NewRecorder(8)
	rec.SetMeta("core.lockbits", "20")
	a, b := rec.NewRing("thr0"), rec.NewRing("thr1")
	a.Record(KindTxBegin, 1, 0, 0)
	a.Record(KindRead, 1, 64, 0)
	a.Record(KindCommit, 2, 1, 0)
	b.Record(KindCMDecision, 3, 64, CMAux(1, 0))
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		tb.Fatalf("Dump: %v", err)
	}
	return buf.Bytes()
}

// A header's counts are untrusted: a meta count the stream cannot back
// is an error, not an allocation sized by the count.
func TestReadTraceHugeMetaCount(t *testing.T) {
	in := hugeMetaDump()
	if len(in) != 28 {
		t.Fatalf("dump is %d bytes, want 28", len(in))
	}
	if _, err := ReadTrace(bytes.NewReader(in)); err == nil {
		t.Fatal("dump claiming 2^32-1 metadata entries accepted")
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes: it must return a trace
// or an error, never panic or exhaust memory, and a trace it returns
// must survive Validate.
func FuzzReadTrace(f *testing.F) {
	f.Add(recordedDump(f))
	f.Add(hugeMetaDump())
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		_ = tr.Validate()
	})
}
