// Command tlstm-trace inspects binary flight-recorder dumps written by
// the runtimes' -trace flag (internal/txtrace format, magic TXTRACE2;
// the older TXTRACE1 is still readable).
//
// Formats:
//
//	-format summary   per-ring abort-chain and CM-defeat summaries (default)
//	-format text      one line per event, decoded
//	-format json      the whole trace as JSON, kinds and codes named
//	-format perfetto  Chrome trace_event JSON: open in Perfetto
//	                  (ui.perfetto.dev) or chrome://tracing
//
// Verbs:
//
//	tlstm-trace check <trace-file>
//
// runs the offline opacity checker (internal/txcheck) and prints a
// per-ring verdict table: transactions checked, aborted-transaction
// snapshots verified, and the sequence-gap / ring-overwrite counts that
// downgrade a verdict from "complete" to "partial". Exit status 1 when
// the trace contains an opacity violation.
//
// Every invocation first validates the dump's structural invariants
// (monotonic per-ring sequences, known kinds, non-decreasing times) and
// fails if they do not hold: this tool and the checker are the
// reference consumers of the format.
//
//	tlstm-stress -seconds 5 -trace /tmp/run.trace
//	tlstm-trace -format perfetto /tmp/run.trace > /tmp/run.json
//	tlstm-trace check /tmp/run.trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"tlstm/internal/cm"
	"tlstm/internal/mode"
	"tlstm/internal/txcheck"
	"tlstm/internal/txtrace"
)

func main() {
	os.Exit(run())
}

func run() int {
	format := flag.String("format", "summary", `output format: "summary", "text", "json" or "perfetto"`)
	flag.Parse()
	args := flag.Args()
	checkVerb := len(args) > 0 && args[0] == "check"
	if checkVerb {
		args = args[1:]
	}
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: tlstm-trace [-format summary|text|json|perfetto] <trace-file>")
		fmt.Fprintln(os.Stderr, "       tlstm-trace check <trace-file>")
		return 2
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-trace: %v\n", err)
		return 1
	}
	defer f.Close()
	tr, err := txtrace.ReadTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-trace: %v\n", err)
		return 1
	}
	if err := tr.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-trace: invalid trace: %v\n", err)
		return 1
	}

	w := os.Stdout
	if checkVerb {
		return runCheck(w, tr)
	}
	switch *format {
	case "summary":
		err = writeSummary(w, tr)
	case "text":
		err = writeText(w, tr)
	case "json":
		err = writeJSON(w, tr)
	case "perfetto":
		err = writePerfetto(w, tr)
	default:
		fmt.Fprintf(os.Stderr, "tlstm-trace: unknown format %q\n", *format)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-trace: %v\n", err)
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

// runCheck runs the opacity checker and prints its per-ring verdict
// table. Exit status: 0 clean, 1 violated (or checker error).
func runCheck(w io.Writer, tr *txtrace.Trace) int {
	start := time.Now()
	rep, err := txcheck.Check(tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-trace: check: %v\n", err)
		return 1
	}
	rep.WriteTable(w, time.Since(start))
	if !rep.Ok() {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// text
// ---------------------------------------------------------------------------

// pointName names a conflict point for output (cm.Point has no String).
func pointName(p cm.Point) string {
	switch p {
	case cm.PointEncounter:
		return "encounter"
	case cm.PointCommit:
		return "commit"
	default:
		return fmt.Sprintf("point(%d)", int(p))
	}
}

// describe decodes an event's kind-specific fields for human output.
func describe(e txtrace.Event) string {
	switch txtrace.Kind(e.Kind) {
	case txtrace.KindTxBegin:
		return fmt.Sprintf("serial=%d", e.Arg)
	case txtrace.KindAttemptStart:
		return fmt.Sprintf("attempt=%d", e.Arg)
	case txtrace.KindRead, txtrace.KindWrite:
		return fmt.Sprintf("addr=%#x aux=%d", e.Arg, e.Aux)
	case txtrace.KindValidate:
		return fmt.Sprintf("readSet=%d ok=%d", e.Arg, e.Aux)
	case txtrace.KindExtend:
		return fmt.Sprintf("bound=%d ok=%d", e.Arg, e.Aux)
	case txtrace.KindCMDecision:
		dec, point := txtrace.CMAuxDecode(e.Aux)
		return fmt.Sprintf("addr=%#x decision=%s point=%s", e.Arg, cm.Decision(dec), pointName(cm.Point(point)))
	case txtrace.KindAbort:
		return "reason=" + txtrace.AbortReasonString(e.Aux)
	case txtrace.KindCommit:
		return fmt.Sprintf("writeSet=%d", e.Arg)
	case txtrace.KindReclaim:
		return fmt.Sprintf("retireSerial=%d epoch=%d", e.Arg, e.Aux)
	case txtrace.KindRemap:
		return fmt.Sprintf("homeShard=%d prevShard=%d", e.Arg, e.Aux)
	case txtrace.KindCommitWord:
		return fmt.Sprintf("addr=%#x stamp=%d", e.Arg, e.Clock)
	case txtrace.KindModeShift:
		return fmt.Sprintf("mode=%s from=%s", mode.State(e.Arg), mode.State(e.Aux))
	case txtrace.KindRetryPark:
		what := "park"
		if e.Aux == 1 {
			what = "wake"
		}
		return fmt.Sprintf("%s fp=%#x", what, e.Arg)
	default:
		return fmt.Sprintf("arg=%d aux=%d", e.Arg, e.Aux)
	}
}

func writeText(w io.Writer, tr *txtrace.Trace) error {
	for _, rd := range tr.Rings {
		if _, err := fmt.Fprintf(w, "ring %d %q: %d events, %d dropped\n",
			rd.ID, rd.Label, len(rd.Events), rd.Drops); err != nil {
			return err
		}
		for _, e := range rd.Events {
			if _, err := fmt.Fprintf(w, "  [%6d] +%-12d %-12s clock=%-8d %s\n",
				e.Seq, e.Time, txtrace.Kind(e.Kind), e.Clock, describe(e)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// json
// ---------------------------------------------------------------------------

type jsonEvent struct {
	Seq   uint64 `json:"seq"`
	Time  int64  `json:"time"`
	Kind  string `json:"kind"`
	Clock uint64 `json:"clock"`
	Arg   uint64 `json:"arg"`
	Aux   uint32 `json:"aux"`
	Desc  string `json:"desc"`
}

type jsonRing struct {
	ID     uint32      `json:"id"`
	Label  string      `json:"label"`
	Drops  uint64      `json:"drops"`
	Events []jsonEvent `json:"events"`
}

func writeJSON(w io.Writer, tr *txtrace.Trace) error {
	out := struct {
		StartUnixNanos int64      `json:"startUnixNanos"`
		Rings          []jsonRing `json:"rings"`
	}{StartUnixNanos: tr.StartUnixNanos}
	for _, rd := range tr.Rings {
		jr := jsonRing{ID: rd.ID, Label: rd.Label, Drops: rd.Drops, Events: make([]jsonEvent, 0, len(rd.Events))}
		for _, e := range rd.Events {
			jr.Events = append(jr.Events, jsonEvent{
				Seq: e.Seq, Time: e.Time, Kind: txtrace.Kind(e.Kind).String(),
				Clock: e.Clock, Arg: e.Arg, Aux: e.Aux, Desc: describe(e),
			})
		}
		out.Rings = append(out.Rings, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ---------------------------------------------------------------------------
// summary
// ---------------------------------------------------------------------------

type ringSummary struct {
	commits, aborts uint64
	byReason        map[uint32]uint64
	// abort chains: runs of consecutive aborts with no commit between
	// them. chainMax is the longest observed; chains counts runs.
	chainMax, chainCur, chains uint64
	// CM tallies: resolutions seen, split by verdict. "Defeats" are
	// AbortSelf verdicts — conflicts this ring lost.
	cmSeen, cmDefeats, cmWins, cmWaits uint64
	// remaps counts affinity placement rebinds (KindRemap).
	remaps uint64
	// Mode-ladder transitions (KindModeShift): fallbacks are shifts to
	// the serialized rung, recoveries shifts back to speculative.
	fallbacks, recoveries uint64
	// Retry cond-var activity (KindRetryPark): parks and doorbell wakes.
	parks, wakes uint64
	// seqGaps counts mid-ring sequence discontinuities: events lost
	// inside the retained window (distinct from Drops, which counts
	// oldest events the ring overwrote).
	seqGaps uint64
}

func summarize(rd txtrace.RingDump) ringSummary {
	s := ringSummary{byReason: map[uint32]uint64{}}
	var prevSeq uint64
	for i, e := range rd.Events {
		if i > 0 && e.Seq != prevSeq+1 {
			s.seqGaps++
		}
		prevSeq = e.Seq
		switch txtrace.Kind(e.Kind) {
		case txtrace.KindAbort:
			s.aborts++
			s.byReason[e.Aux]++
			s.chainCur++
			if s.chainCur == 1 {
				s.chains++
			}
			if s.chainCur > s.chainMax {
				s.chainMax = s.chainCur
			}
		case txtrace.KindCommit:
			s.commits++
			s.chainCur = 0
		case txtrace.KindCMDecision:
			dec, _ := txtrace.CMAuxDecode(e.Aux)
			s.cmSeen++
			switch cm.Decision(dec) {
			case cm.AbortSelf:
				s.cmDefeats++
			case cm.AbortOwner:
				s.cmWins++
			case cm.Wait:
				s.cmWaits++
			}
		case txtrace.KindRemap:
			s.remaps++
		case txtrace.KindModeShift:
			if mode.State(e.Arg) == mode.StateSerial {
				s.fallbacks++
			} else {
				s.recoveries++
			}
		case txtrace.KindRetryPark:
			if e.Aux == 1 {
				s.wakes++
			} else {
				s.parks++
			}
		}
	}
	return s
}

func writeSummary(w io.Writer, tr *txtrace.Trace) error {
	var total ringSummary
	total.byReason = map[uint32]uint64{}
	var totalDrops uint64
	lossyRings := 0
	for _, rd := range tr.Rings {
		s := summarize(rd)
		total.commits += s.commits
		total.aborts += s.aborts
		total.chains += s.chains
		if s.chainMax > total.chainMax {
			total.chainMax = s.chainMax
		}
		total.cmSeen += s.cmSeen
		total.cmDefeats += s.cmDefeats
		total.cmWins += s.cmWins
		total.cmWaits += s.cmWaits
		total.remaps += s.remaps
		total.fallbacks += s.fallbacks
		total.recoveries += s.recoveries
		total.parks += s.parks
		total.wakes += s.wakes
		total.seqGaps += s.seqGaps
		totalDrops += rd.Drops
		for k, v := range s.byReason {
			total.byReason[k] += v
		}
		if _, err := fmt.Fprintf(w, "ring %3d %-24q events=%-7d drops=%-5d commits=%-6d aborts=%-6d chains=%d maxChain=%d remaps=%d cm[seen=%d defeats=%d wins=%d waits=%d]%s%s\n",
			rd.ID, rd.Label, len(rd.Events), rd.Drops, s.commits, s.aborts,
			s.chains, s.chainMax, s.remaps, s.cmSeen, s.cmDefeats, s.cmWins, s.cmWaits,
			modeList(s), reasonList(s.byReason)); err != nil {
			return err
		}
		// Event loss is reported, never silently summarized away: a
		// lossy ring's tallies describe a truncated suffix of the run.
		if rd.Drops > 0 || s.seqGaps > 0 {
			lossyRings++
			if _, err := fmt.Fprintf(w, "  WARNING ring %d lost events: %d oldest overwritten, %d mid-ring sequence gaps — tallies above cover only the retained window\n",
				rd.ID, rd.Drops, s.seqGaps); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w, "total: rings=%d commits=%d aborts=%d abortChains=%d maxChain=%d remaps=%d cm[seen=%d defeats=%d wins=%d waits=%d]%s%s\n",
		len(tr.Rings), total.commits, total.aborts, total.chains, total.chainMax,
		total.remaps, total.cmSeen, total.cmDefeats, total.cmWins, total.cmWaits,
		modeList(total), reasonList(total.byReason)); err != nil {
		return err
	}
	if totalDrops > 0 || total.seqGaps > 0 {
		if _, err := fmt.Fprintf(w, "total: EVENT LOSS across %d ring(s): %d events overwritten, %d sequence gaps — totals above undercount the run\n",
			lossyRings, totalDrops, total.seqGaps); err != nil {
			return err
		}
	}
	return nil
}

// modeList formats mode-ladder and Retry activity, omitted entirely for
// rings that never shifted or parked.
func modeList(s ringSummary) string {
	if s.fallbacks == 0 && s.recoveries == 0 && s.parks == 0 && s.wakes == 0 {
		return ""
	}
	return fmt.Sprintf(" mode[fallbacks=%d recoveries=%d parks=%d wakes=%d]",
		s.fallbacks, s.recoveries, s.parks, s.wakes)
}

// reasonList formats abort counts by reason, stable order.
func reasonList(m map[uint32]uint64) string {
	if len(m) == 0 {
		return ""
	}
	codes := make([]uint32, 0, len(m))
	for c := range m {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	s := " reasons["
	for i, c := range codes {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", txtrace.AbortReasonString(c), m[c])
	}
	return s + "]"
}

// ---------------------------------------------------------------------------
// perfetto (Chrome trace_event JSON)
// ---------------------------------------------------------------------------

// perfettoEvent is one Chrome trace_event record. Perfetto and
// chrome://tracing both consume the JSON array form; timestamps are
// microseconds.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint32         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func writePerfetto(w io.Writer, tr *txtrace.Trace) error {
	var out []perfettoEvent
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, rd := range tr.Rings {
		out = append(out, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: rd.ID,
			Args: map[string]any{"name": rd.Label},
		})
		// Attempts become complete ("X") spans from AttemptStart to the
		// attempt's Abort or Commit; everything else becomes an instant.
		var open *txtrace.Event
		for i := range rd.Events {
			e := rd.Events[i]
			switch txtrace.Kind(e.Kind) {
			case txtrace.KindAttemptStart:
				open = &rd.Events[i]
			case txtrace.KindAbort, txtrace.KindCommit:
				name := "commit"
				args := map[string]any{"clock": e.Clock, "writeSet": e.Arg}
				if txtrace.Kind(e.Kind) == txtrace.KindAbort {
					name = "abort:" + txtrace.AbortReasonString(e.Aux)
					args = map[string]any{"clock": e.Clock}
				}
				if open != nil {
					out = append(out, perfettoEvent{
						Name: name, Cat: "attempt", Ph: "X",
						Ts: us(open.Time), Dur: us(e.Time - open.Time),
						Pid: 1, Tid: rd.ID, Args: args,
					})
					open = nil
				} else {
					out = append(out, perfettoEvent{
						Name: name, Cat: "attempt", Ph: "i", Ts: us(e.Time),
						Pid: 1, Tid: rd.ID, S: "t", Args: args,
					})
				}
			case txtrace.KindCMDecision:
				dec, point := txtrace.CMAuxDecode(e.Aux)
				out = append(out, perfettoEvent{
					Name: "cm:" + cm.Decision(dec).String(), Cat: "cm", Ph: "i",
					Ts: us(e.Time), Pid: 1, Tid: rd.ID, S: "t",
					Args: map[string]any{"addr": e.Arg, "point": pointName(cm.Point(point))},
				})
			case txtrace.KindExtend:
				out = append(out, perfettoEvent{
					Name: "extend", Cat: "snapshot", Ph: "i", Ts: us(e.Time),
					Pid: 1, Tid: rd.ID, S: "t",
					Args: map[string]any{"bound": e.Arg, "ok": e.Aux},
				})
			case txtrace.KindReclaim:
				out = append(out, perfettoEvent{
					Name: "reclaim", Cat: "reclaim", Ph: "i", Ts: us(e.Time),
					Pid: 1, Tid: rd.ID, S: "t",
					Args: map[string]any{"retireSerial": e.Arg, "epoch": e.Aux},
				})
			case txtrace.KindRemap:
				out = append(out, perfettoEvent{
					Name: "remap", Cat: "placement", Ph: "i", Ts: us(e.Time),
					Pid: 1, Tid: rd.ID, S: "t",
					Args: map[string]any{"homeShard": e.Arg, "prevShard": e.Aux},
				})
			case txtrace.KindModeShift:
				out = append(out, perfettoEvent{
					Name: "mode:" + mode.State(e.Arg).String(), Cat: "mode", Ph: "i",
					Ts: us(e.Time), Pid: 1, Tid: rd.ID, S: "t",
					Args: map[string]any{"from": mode.State(e.Aux).String()},
				})
			case txtrace.KindRetryPark:
				name := "retry:park"
				if e.Aux == 1 {
					name = "retry:wake"
				}
				out = append(out, perfettoEvent{
					Name: name, Cat: "retry", Ph: "i", Ts: us(e.Time),
					Pid: 1, Tid: rd.ID, S: "t",
					Args: map[string]any{"fingerprint": e.Arg},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
