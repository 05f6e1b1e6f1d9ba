package runflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/harness"
	"tlstm/internal/mode"
)

// parse registers the shared flags plus a command's own (the shapes
// tlstm-bench and tlstm-stress use) and validates args.
func parse(t *testing.T, args ...string) (*Flags, harness.Settings, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("fig", "all", "")
	fs.String("format", "table", "")
	fs.String("json", "", "")
	fs.Bool("quick", false, "")
	fs.Int("depth", 3, "")
	f := Register(fs,
		Rule{Flag: "fig", Scope: NoSweep, Values: []string{"1a", "all"}},
		Rule{Flag: "format", Scope: NoSweep, Values: []string{"table", "csv"}},
		Rule{Flag: "json", Scope: SweepOnly},
		Rule{Flag: "depth", Scope: NoSweep})
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
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
		{[]string{"-sweep", "cm", "-shards", "4"}, "-shards does not apply to -sweep"},
		{[]string{"-sweep", "cm", "-affinity"}, "-affinity does not apply to -sweep"},
		{[]string{"-sweep", "clock", "-clock", "deferred"}, "-clock does not apply to -sweep"},
		{[]string{"-sweep", "mode", "-cm", "karma"}, "-cm does not apply to -sweep"},
		{[]string{"-sweep", "mode", "-mode", "serial"}, "-mode does not apply to -sweep"},
		{[]string{"-sweep", "mv", "-fig", "1a"}, "-fig does not apply to -sweep"},
		{[]string{"-sweep", "mv", "-format", "csv"}, "-format does not apply to -sweep"},
		{[]string{"-sweep", "shards", "-depth", "2"}, "-depth does not apply to -sweep"},
		{[]string{"-json", "out.json"}, "-json requires -sweep"},
		{[]string{"-shards", "3"}, "shard count 3 must be a power of two"},
		{[]string{"-shards", "-2"}, "shard count -2 must be a power of two"},
		{[]string{"-affinity"}, "affinity placement needs more than one shard"},
		{[]string{"-shards", "1", "-affinity"}, "affinity placement needs more than one shard"},
		{[]string{"-mv", "-1"}, "retained version depth -1 cannot be negative"},
		{[]string{"-clock", "gv9"}, "gv9"},
		{[]string{"-cm", "polite"}, "polite"},
		{[]string{"-mode", "eager"}, "eager"},
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
		{"-sweep", "mv", "-json", "out.json", "-quick"},
		{"-sweep", "shards"},
		{"-shards", "4", "-affinity", "-mv", "2"},
	} {
		if _, _, err := parse(t, args...); err != nil {
			t.Errorf("%v rejected: %v", args, err)
		}
	}
	_, s, err = parse(t, "-clock", "deferred", "-cm", "karma", "-mode", "adaptive", "-mv", "2",
		"-shards", "4", "-affinity", "-trace", "out.trace")
	if err != nil {
		t.Fatal(err)
	}
	if s.Clock != clock.KindDeferred || s.CM != cm.KindKarma || s.Mode != mode.Adaptive ||
		s.MV != 2 || s.Shards != 4 || !s.Affinity || s.Trace == nil {
		t.Fatalf("settings %+v do not carry the flags", s)
	}
	c := s.Config()
	if c.Clock.Name() != "deferred" || c.CM.Name() != "karma" || c.Mode.Policy != mode.Adaptive ||
		c.MVDepth != 2 || c.Shards != 4 || !c.Affinity || c.Trace != s.Trace {
		t.Fatalf("Config() = %+v does not carry the settings", c)
	}
	if s.Config().Clock == c.Clock {
		t.Fatal("Config() shares one clock instance between runtimes")
	}
}
