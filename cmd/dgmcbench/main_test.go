package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("10, 20,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Errorf("sizes = %v", got)
	}
	for _, bad := range []string{"", "x", "1", "10,-5", ",,"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) succeeded", bad)
		}
	}
}

func TestRunExperiment3Small(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "3", "-sizes", "10", "-graphs", "2", "-events", "4"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Experiment 3") || !strings.Contains(out, "proposals/event") {
		t.Errorf("output malformed:\n%s", out)
	}
}

func TestRunCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "3", "-sizes", "10", "-graphs", "2", "-events", "4", "-csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "switches,proposals/event_mean") {
		t.Errorf("csv output malformed:\n%s", sb.String())
	}
}

func TestRunBaselinesAndTrees(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "baselines,trees", "-sizes", "10", "-graphs", "2", "-events", "4"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "brute force") || !strings.Contains(out, "CBT") {
		t.Errorf("output missing sections:\n%s", out)
	}
}

func TestRunDeliverySmall(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "delivery", "-graphs", "4"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Delivery sweep") || !strings.Contains(out, "ratio-settled") {
		t.Errorf("output malformed:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-sizes", "nope"}, &sb); err == nil {
		t.Error("bad sizes accepted")
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-experiment", "partition", "-partition", "0"}, &sb); err == nil {
		t.Error("-partition 0 accepted")
	}
	if err := run([]string{"-experiment", "partition", "-heal-after", "-3"}, &sb); err == nil {
		t.Error("negative -heal-after accepted")
	}
	for _, typo := range []string{"brust", "1,2,tres", ""} {
		sb.Reset()
		err := run([]string{"-experiment", typo}, &sb)
		if err == nil || !strings.Contains(err.Error(), strings.Join(experimentNames, ", ")) {
			t.Errorf("-experiment %q: err = %v, want an error listing the experiments", typo, err)
		}
		if sb.Len() != 0 {
			t.Errorf("-experiment %q printed %q before failing", typo, sb.String())
		}
	}
}

func TestRunPartitionSmall(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-experiment", "partition", "-sizes", "10", "-graphs", "4",
		"-events", "6", "-partition", "1", "-heal-after", "10", "-crash",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Partition sweep") || !strings.Contains(out, "reconciles/cycle") {
		t.Errorf("output malformed:\n%s", out)
	}
	if !strings.Contains(out, "nodal outage") {
		t.Errorf("-crash not reflected in title:\n%s", out)
	}
}

// TestExperimentTablesGolden pins the paper's experiment tables to the
// byte: Figures 6-8 and the burst sweep (whose withdrawn/event column
// counts the Tc races themselves) must equal the checked-in output of
// `dgmcbench -experiment 1,2,3,burst -graphs 2 -seed 1`.
func TestExperimentTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/experiments_1_2_3_burst.golden")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-experiment", "1,2,3,burst", "-graphs", "2", "-seed", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("tables differ from testdata/experiments_1_2_3_burst.golden:\n%s", sb.String())
	}
}
