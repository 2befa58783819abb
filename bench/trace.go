package main

import (
	"encoding/json"
	"os"
	"time"
)

// hspan is one harness-side span: a call into a layer of the program (or the
// wait for its effect), timed from the benchmark's own files. Spans of one
// burst or one membership event share Op; Parent is an index into the same
// log, -1 for a root.
type hspan struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Op      uint64 `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpansPerLog bounds a log's memory; spans past it are counted, not kept.
const maxSpansPerLog = 250000

// spanLog collects the spans of one generator goroutine in memory. A nil log
// is the untraced run: every method is a no-op, so end-to-end runs pay one
// nil check per call site.
type spanLog struct {
	origin  time.Time
	spans   []hspan
	dropped int
}

func newSpanLog(origin time.Time) *spanLog {
	return &spanLog{origin: origin, spans: make([]hspan, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 if not recorded).
func (l *spanLog) begin(name string, parent int, op uint64) int {
	if l == nil {
		return -1
	}
	if len(l.spans) >= maxSpansPerLog {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, hspan{Name: name, Parent: parent, Op: op, StartNS: int64(time.Since(l.origin))})
	return len(l.spans) - 1
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	if l == nil || id < 0 {
		return 0
	}
	s := &l.spans[id]
	s.EndNS = int64(time.Since(l.origin))
	return time.Duration(s.EndNS - s.StartNS)
}

// spanDoc is the file -out receives at the end of a traced run.
type spanDoc struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Dropped  int                `json:"dropped"`
	Logs     map[string][]hspan `json:"logs"`
}

func writeSpans(path, workload string, seed int64, logs map[string]*spanLog) error {
	doc := spanDoc{Workload: workload, Seed: seed, Logs: map[string][]hspan{}}
	for name, l := range logs {
		if l != nil {
			doc.Logs[name] = l.spans
			doc.Dropped += l.dropped
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
