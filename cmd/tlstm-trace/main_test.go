package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tlstm/internal/txtrace"
)

// TestModeShiftRendering feeds a dump holding KindModeShift events, as
// runtimes with the former adaptive mode ladder wrote them, through the
// text, summary and perfetto outputs: each must name both rungs.
func TestModeShiftRendering(t *testing.T) {
	rec := txtrace.NewRecorder(64)
	r := rec.NewRing("core-thr0-mode")
	r.Record(txtrace.KindModeShift, 1, 1, 0) // spec -> serial
	r.Record(txtrace.KindModeShift, 2, 0, 1) // serial -> spec
	var dump bytes.Buffer
	if err := rec.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	tr, err := txtrace.ReadTrace(&dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		write func(*bytes.Buffer, *txtrace.Trace) error
		want  []string
	}{
		{"text", func(b *bytes.Buffer, tr *txtrace.Trace) error { return writeText(b, tr) },
			[]string{"ModeShift", "mode=serial from=spec", "mode=spec from=serial"}},
		{"summary", func(b *bytes.Buffer, tr *txtrace.Trace) error { return writeSummary(b, tr) },
			[]string{"mode[fallbacks=1 recoveries=1 parks=0 wakes=0]"}},
		{"perfetto", func(b *bytes.Buffer, tr *txtrace.Trace) error { return writePerfetto(b, tr) },
			[]string{`"name":"mode:serial"`, `"from":"spec"`, `"name":"mode:spec"`, `"from":"serial"`}},
	} {
		var out bytes.Buffer
		if err := tc.write(&out, tr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s output lacks %q:\n%s", tc.name, w, out.String())
			}
		}
		if tc.name == "perfetto" && !json.Valid(out.Bytes()) {
			t.Errorf("perfetto output is not JSON:\n%s", out.String())
		}
	}
}
