package exp

import (
	"testing"
	"time"
)

// TestThroughputSmall exercises the saturation sweep end to end at toy
// scale: one 9-switch cell, short windows. It gates plumbing (cluster boot,
// closed-loop blast, table assembly), not absolute rates — those belong to
// BenchmarkClusterThroughput and the repo benchmark (go run ./bench).
func TestThroughputSmall(t *testing.T) {
	tbl, err := Throughput(ThroughputParams{
		Sizes:        []int{9},
		Sources:      []int{2},
		Payloads:     []int{32},
		Warmup:       20 * time.Millisecond,
		Measure:      50 * time.Millisecond,
		RunsPerPoint: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(tbl.Rows))
	}
	row := tbl.Rows[0]
	if row.X != 9 {
		t.Fatalf("row X = %v, want 9", row.X)
	}
	if len(row.Cells) != 2 {
		t.Fatalf("got %d cells, want 2 (ksend/s, kdeliv/s)", len(row.Cells))
	}
	if row.Cells[0].Mean <= 0 || row.Cells[1].Mean <= 0 {
		t.Fatalf("saturation run measured zero throughput: %+v", row.Cells)
	}
}

func TestThroughputShape(t *testing.T) {
	for _, tc := range []struct{ n, rows, cols int }{
		{16, 4, 4}, {32, 4, 8}, {64, 8, 8}, {9, 3, 3},
	} {
		r, c := throughputShape(tc.n)
		if r != tc.rows || c != tc.cols {
			t.Errorf("throughputShape(%d) = %d×%d, want %d×%d", tc.n, r, c, tc.rows, tc.cols)
		}
	}
}
