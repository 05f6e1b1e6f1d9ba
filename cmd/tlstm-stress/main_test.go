package main

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tlstm/internal/core"
	"tlstm/internal/txstats"
)

// fillStats gives every counter of v a distinct value and every
// histogram a distinct bucket-0 count, appending each one to words.
func fillStats(v reflect.Value, words *[]uint64) {
	switch {
	case v.Type() == reflect.TypeOf(txstats.Hist{}):
		w := uint64(len(*words) + 1)
		v.Index(0).SetUint(w)
		*words = append(*words, w)
	case v.Kind() == reflect.Uint64:
		w := uint64(len(*words) + 1)
		v.SetUint(w)
		*words = append(*words, w)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillStats(v.Field(i), words)
		}
	default:
		panic(fmt.Sprintf("core.Stats field of kind %s", v.Kind()))
	}
}

// TestMetricsAndExitLineCarryEveryField: the live metrics source and the
// exit line carry every field of core.Stats exactly once, each under its
// own name and with its own value.
func TestMetricsAndExitLineCarryEveryField(t *testing.T) {
	var st core.Stats
	var want []uint64
	fillStats(reflect.ValueOf(&st).Elem(), &want)

	snap := statsSnapshot(st)
	var got []uint64
	for _, n := range snap.Counters {
		got = append(got, n)
	}
	for _, h := range snap.Hists {
		got = append(got, h[0])
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("metrics source carries %d fields %v, want %d %v", len(got), got, len(want), want)
	}

	rt := core.New(core.Config{})
	defer rt.Close()
	line := " " + exitLine(rt, st)
	for name, n := range snap.Counters {
		if c := strings.Count(line, " "+name+"="); c != 1 {
			t.Errorf("exit line has %s= %d times, want once: %s", name, c, line)
		}
		if !strings.Contains(line, fmt.Sprintf(" %s=%d ", name, n)) {
			t.Errorf("exit line lacks %s=%d: %s", name, n, line)
		}
	}
	for name, h := range snap.Hists {
		if c := strings.Count(line, " "+name+"["); c != 1 {
			t.Errorf("exit line has %s[ %d times, want once: %s", name, c, line)
		}
		if !strings.Contains(line, fmt.Sprintf(" %s[%s]", name, h)) {
			t.Errorf("exit line lacks %s[%s]: %s", name, h, line)
		}
	}
}
