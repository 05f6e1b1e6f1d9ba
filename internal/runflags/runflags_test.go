package runflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"tlstm/internal/cm"
	"tlstm/internal/harness"
	"tlstm/internal/mode"
)

// parse registers the shared flags plus a command's own (the shapes
// tlstm-bench and tlstm-stress use) and validates args. A flag the set
// does not define is reported as the error.
func parse(t *testing.T, args ...string) (*Flags, harness.Settings, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("fig", "all", "")
	fs.String("format", "table", "")
	fs.Bool("quick", false, "")
	fs.Int("depth", 3, "")
	f := Register(fs,
		Rule{Flag: "fig", Scope: NoSweep, Values: []string{"1a", "all"}},
		Rule{Flag: "format", Scope: NoSweep, Values: []string{"table", "csv"}},
		Rule{Flag: "depth", Scope: NoSweep})
	if err := fs.Parse(args); err != nil {
		return nil, harness.Settings{}, err
	}
	s, err := f.Settings()
	return f, s, err
}

func TestSettingsRejectsIgnoredOrMalformedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-format", "xml"}, `-format "xml"`},
		{[]string{"-fig", "3c"}, `-fig "3c"`},
		{[]string{"-sweep", "bogus"}, `-sweep "bogus"`},
		{[]string{"-sweep", "cm", "-trace", "f"}, "-trace does not apply to -sweep"},
		{[]string{"-sweep", "cm", "-mv", "2"}, "-mv does not apply to -sweep"},
		{[]string{"-sweep", "clock"}, `-sweep "clock": want one of cm, mode, mv`},
		{[]string{"-clock", "gv4"}, "flag provided but not defined: -clock"},
		{[]string{"-sweep", "mode", "-cm", "backoff"}, "-cm does not apply to -sweep"},
		{[]string{"-sweep", "mode", "-mode", "serial"}, "-mode does not apply to -sweep"},
		{[]string{"-sweep", "mv", "-fig", "1a"}, "-fig does not apply to -sweep"},
		{[]string{"-sweep", "mv", "-format", "csv"}, "-format does not apply to -sweep"},
		{[]string{"-sweep", "mode", "-depth", "2"}, "-depth does not apply to -sweep"},
		{[]string{"-mv", "-1"}, "retained version depth -1 cannot be negative"},
		{[]string{"-cm", "polite"}, "polite"},
		{[]string{"-cm", "karma"}, `"karma" (want suicide, backoff, greedy, taskaware or default)`},
		{[]string{"-mode", "eager"}, "eager"},
		{[]string{"-mode", "adaptive"}, `"adaptive" (want spec, serial)`},
	} {
		_, _, err := parse(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

func TestSettingsAcceptsValidRuns(t *testing.T) {
	f, s, err := parse(t)
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if f.Sweep != "" || s != (harness.Settings{}) {
		t.Fatalf("defaults = sweep %q, %+v; want no sweep and zero settings", f.Sweep, s)
	}
	for _, args := range [][]string{
		{"-quick", "-fig", "1a", "-format", "csv"},
		{"-sweep", "mv", "-quick"},
		{"-sweep", "cm"},
		{"-mv", "2"},
	} {
		if _, _, err := parse(t, args...); err != nil {
			t.Errorf("%v rejected: %v", args, err)
		}
	}
	_, s, err = parse(t, "-cm", "backoff", "-mode", "serial", "-mv", "2", "-trace", "out.trace")
	if err != nil {
		t.Fatal(err)
	}
	if s.CM != cm.KindBackoff || s.Mode != mode.Serial ||
		s.MV != 2 || s.Trace == nil {
		t.Fatalf("settings %+v do not carry the flags", s)
	}
	c := s.Config()
	if c.CM.Name() != "backoff" || c.Mode.Policy != mode.Serial ||
		c.MVDepth != 2 || c.Trace != s.Trace {
		t.Fatalf("Config() = %+v does not carry the settings", c)
	}
	if c.Clock != nil {
		t.Fatal("Config() sets a clock: each runtime must build its own")
	}
}
