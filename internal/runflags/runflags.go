// Package runflags registers the runtime-settings flags that
// cmd/tlstm-bench and cmd/tlstm-stress share (-cm, -mode, -mv,
// -trace and -sweep) and validates them, together with each command's
// own flags, against one rule table: a flag set for a kind of run that
// ignores it is an error, not a silent no-op.
package runflags

import (
	"flag"
	"fmt"
	"slices"
	"sort"
	"strings"

	"tlstm/internal/cm"
	"tlstm/internal/harness"
	"tlstm/internal/mode"
	"tlstm/internal/txtrace"
)

// Scope says which kind of run a flag applies to.
type Scope int

const (
	// Any flags apply to every run.
	Any Scope = iota
	// NoSweep flags configure a figure or soak run; a -sweep run
	// ignores them, since every sweep row builds its own runtime.
	NoSweep
)

// Rule constrains one flag: the runs it applies to and, when Values is
// non-empty, the only values it accepts.
type Rule struct {
	Flag   string
	Scope  Scope
	Values []string
}

// Flags holds the shared flags once parsed.
type Flags struct {
	// Sweep is the -sweep axis; "" runs the figures or the soak.
	Sweep string
	// Trace is the -trace dump path; "" leaves the recorder disarmed.
	Trace string

	cm, mode string
	mv       int

	fs    *flag.FlagSet
	rules []Rule
}

// Register defines the shared flags on fs and returns them. own lists
// the rules for the calling command's flags that are not Any.
func Register(fs *flag.FlagSet, own ...Rule) *Flags {
	f := &Flags{fs: fs}
	var axes []string
	for axis := range harness.Sweeps {
		axes = append(axes, axis)
	}
	sort.Strings(axes)
	fs.StringVar(&f.Sweep, "sweep", "", "run the invariant-checked sweep over one runtime setting across all four runtimes instead: "+strings.Join(axes, ", "))
	fs.StringVar(&f.cm, "cm", "default", `contention-management policy: "suicide", "backoff", "greedy", "taskaware" or "default" (each runtime's own)`)
	fs.StringVar(&f.mode, "mode", "spec", `execution-mode policy: "spec" (every transaction speculative) or "serial" (every transaction under the runtime's gate)`)
	fs.IntVar(&f.mv, "mv", 0, "retained version depth (0 disables multi-versioning)")
	fs.StringVar(&f.Trace, "trace", "", "arm the flight recorder in every runtime the run builds and write the binary trace dump here; inspect with tlstm-trace")
	f.rules = append([]Rule{
		{Flag: "sweep", Values: axes},
		{Flag: "cm", Scope: NoSweep}, {Flag: "mode", Scope: NoSweep},
		{Flag: "mv", Scope: NoSweep}, {Flag: "trace", Scope: NoSweep},
	}, own...)
	return f
}

// Settings checks every flag set on the command line against the rule
// table and returns the runtime settings of a figure or soak run: the
// trace recorder is armed when -trace is set.
func (f *Flags) Settings() (harness.Settings, error) {
	set := map[string]string{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = fl.Value.String() })
	for _, r := range f.rules {
		v, ok := set[r.Flag]
		switch {
		case !ok:
		case r.Scope == NoSweep && f.Sweep != "":
			return harness.Settings{}, fmt.Errorf("-%s does not apply to -sweep runs: every sweep row builds its own runtime", r.Flag)
		case len(r.Values) > 0 && !slices.Contains(r.Values, v):
			return harness.Settings{}, fmt.Errorf("-%s %q: want one of %s", r.Flag, v, strings.Join(r.Values, ", "))
		}
	}
	var err error
	s := harness.Settings{MV: f.mv}
	if s.CM, err = cm.Parse(f.cm); err != nil {
		return harness.Settings{}, err
	}
	if s.Mode, err = mode.Parse(f.mode); err != nil {
		return harness.Settings{}, err
	}
	if err := s.Validate(); err != nil {
		return harness.Settings{}, err
	}
	if f.Trace != "" {
		s.Trace = txtrace.NewRecorder(0)
	}
	return s, nil
}
