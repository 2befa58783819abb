package main

import (
	"bufio"
	"hash/crc32"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchProcs is the GOMAXPROCS every workload runs at. Pinned, because
// throughput on this runtime is not monotone in cores and an unpinned run on
// a bigger host would not be comparable.
const benchProcs = 2

// host is the fingerprint printed with every result, so a figure measured on
// another machine is recognised as such.
type host struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"git_commit"`
	CalibMBps  float64 `json:"host.calib_crc_mbps"`
	Comparable bool    `json:"comparable"` // false when nproc < GOMAXPROCS
}

func fingerprint() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: benchProcs,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
		CalibMBps:  calibCRC(),
	}
	h.Comparable = h.NProc >= benchProcs
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD; a checkout that is not a repository (the
// acceptance driver's) reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// calibCRC times a single-threaded CRC32C loop over a cache-resident buffer
// and returns MB/s (median of five 20 ms rounds). Pure CPU, no scheduler: it
// flags a different or throttled host.
func calibCRC() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	var rounds []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		n := 0
		for time.Since(start) < 20*time.Millisecond {
			crcSink = crc32.Update(crcSink, tab, buf)
			n++
		}
		rounds = append(rounds, float64(n*len(buf))/1e6/time.Since(start).Seconds())
	}
	return median(rounds)
}

// crcSink keeps the calibration loop's result live so it is not optimised away.
var crcSink uint32

// stolenMS is the CPU time the hypervisor has taken from this machine's
// processors since boot, in milliseconds (the eighth figure of /proc/stat's
// first line); 0 where the kernel does not say. A run's share of it goes into
// the notes, so a disturbed run can be told from a slow program; no figure is
// corrected by it.
func stolenMS() float64 {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseUint(f[8], 10, 64)
	return float64(ticks) * 10 // USER_HZ is 100 on every Linux port Go runs on
}
