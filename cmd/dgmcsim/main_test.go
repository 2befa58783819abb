package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunSparseSymmetric(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "12", "-events", "4", "-seed", "2"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"network:", "event:", "converged", "computations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBurstWithTrace(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "10", "-events", "4", "-burst", "-trace"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "flood") || !strings.Contains(out, "install") {
		t.Errorf("trace missing protocol steps:\n%s", out)
	}
}

func TestRunAllAlgorithmsAndKinds(t *testing.T) {
	for _, alg := range []string{"sph", "kmb", "spt", "incremental"} {
		for _, kind := range []string{"symmetric", "receiver-only", "asymmetric"} {
			var sb strings.Builder
			err := run([]string{"-n", "10", "-events", "3", "-algorithm", alg, "-kind", kind}, &sb)
			if err != nil {
				t.Errorf("%s/%s: %v", alg, kind, err)
			}
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := map[string][]string{
		"bad algorithm":        {"-algorithm", "bogus"},
		"bad kind":             {"-kind", "bogus"},
		"unknown flag":         {"-nonsense"},
		"bad mode":             {"-mode", "carrier-pigeon"},
		"too few switches":     {"-n", "1"},
		"no events":            {"-events", "0"},
		"negative tc":          {"-tc", "-1ms"},
		"zero perhop":          {"-perhop", "0"},
		"negative reopt":       {"-reopt", "-0.5"},
		"negative drop":        {"-drop", "-0.1", "-mode", "reliable"},
		"drop above one":       {"-drop", "1.5", "-mode", "reliable"},
		"negative dup":         {"-dup", "-0.1", "-mode", "reliable"},
		"dup above one":        {"-dup", "2", "-mode", "reliable"},
		"negative jitter":      {"-jitter", "-1ms", "-mode", "reliable"},
		"negative resync":      {"-resync", "-4", "-mode", "reliable", "-drop", "0.1"},
		"faults without mode":  {"-drop", "0.1"},
		"jitter without mode":  {"-jitter", "1ms", "-mode", "tree"},
		"resync without lossy": {"-resync", "4"},
		"resync fault-free":    {"-resync", "4", "-mode", "reliable"},
		"partition bad spec":   {"-partition", "0,1/x", "-mode", "reliable", "-resync", "4"},
		"partition one group":  {"-partition", "0,1,2", "-mode", "reliable", "-resync", "4"},
		"partition dup switch": {"-partition", "0,1/1,2", "-mode", "reliable", "-resync", "4"},
		"partition bad switch": {"-partition", "0,1/99", "-n", "8", "-mode", "reliable", "-resync", "4"},
		"partition no resync":  {"-partition", "0,1/2,3", "-mode", "reliable"},
		"partition bad mode":   {"-partition", "0,1/2,3", "-resync", "4"},
		"crash out of range":   {"-crash", "50", "-n", "8", "-mode", "reliable", "-resync", "4"},
		"crash no resync":      {"-crash", "3", "-mode", "reliable"},
		"zero heal-after":      {"-heal-after", "0", "-partition", "0,1/2,3", "-mode", "reliable", "-resync", "4"},
	}
	for name, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%s: run(%v) accepted", name, args)
		}
	}
}

func TestRunReliableLossyWithResync(t *testing.T) {
	// The combination the validation is steering users toward must work.
	var sb strings.Builder
	err := run([]string{"-n", "12", "-events", "4", "-mode", "reliable",
		"-drop", "0.05", "-dup", "0.02", "-resync", "4"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "transport:") {
		t.Errorf("reliable run missing transport summary:\n%s", sb.String())
	}
}

func TestRunPartitionHealConverges(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "8", "-events", "5", "-seed", "3", "-mode", "reliable",
		"-resync", "4", "-partition", "0,1,2,3/4,5,6,7", "-heal-after", "15"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fault: partition(", "heal: reconciles=", "converged"} {
		if !strings.Contains(out, want) {
			t.Errorf("partition run missing %q:\n%s", want, out)
		}
	}
}

func TestRunCrashIsolationConverges(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "8", "-events", "5", "-seed", "3", "-mode", "reliable",
		"-resync", "4", "-crash", "2", "-heal-after", "15"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fault: partition(2|", "heal: reconciles=", "converged"} {
		if !strings.Contains(out, want) {
			t.Errorf("crash run missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithFailureInjection(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "12", "-events", "4", "-faillink", "-reopt", "0.1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "failing tree link") || !strings.Contains(out, "repaired topology") {
		t.Errorf("failure injection output missing:\n%s", out)
	}
}

// TestBurstTraceGolden pins the simulator's virtual timeline to the byte:
// a burst run's full protocol trace (every compute, withdraw and flood
// instant) must equal the checked-in output of
// `dgmcsim -n 15 -events 5 -burst -trace`.
func TestBurstTraceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/burst_trace.golden")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-n", "15", "-events", "5", "-burst", "-trace"}, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("trace differs from testdata/burst_trace.golden:\n%s", sb.String())
	}
}
