package txcheck

import (
	"bytes"
	"testing"

	"tlstm/internal/txtrace"
)

// FuzzCheck feeds the checker arbitrary bytes the way tlstm-trace check
// does — ReadTrace, then Check: a dump is untrusted input, so each must
// give a report or an error, never a panic.
func FuzzCheck(f *testing.F) {
	f.Add(recordedDump(f, "16"))
	f.Add(recordedDump(f, "99"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := txtrace.ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		_, _ = Check(tr)
	})
}
