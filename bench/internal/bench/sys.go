package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"teabench/internal/stat"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat start times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// processAge reads how long ago this process started, from /proc, so work
// the runtime and package initialisers do before main still counts.
func processAge() (time.Duration, error) {
	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; starttime is field 22.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	fields := strings.Fields(rest)
	if len(fields) < 20 {
		return 0, fmt.Errorf("short /proc/self/stat")
	}
	start, err := strconv.ParseFloat(fields[19], 64)
	if err != nil {
		return 0, err
	}
	up, err := os.ReadFile("/proc/uptime")
	if err != nil {
		return 0, err
	}
	uptime, err := strconv.ParseFloat(strings.Fields(string(up))[0], 64)
	if err != nil {
		return 0, err
	}
	// Both clocks tick in 10ms steps, so a young process can read slightly
	// negative.
	return max(0, time.Duration((uptime-start/clockTicks)*float64(time.Second))), nil
}

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 50 * time.Millisecond

// rssSampler reads the resident set every rssEvery while timed work runs,
// for the pass's median footprint and its peak. A sample allocates nothing,
// so sampling does not move allocs_per_kinstr.
type rssSampler struct {
	statm *os.File // /proc/self/statm, held open
	buf   [128]byte
	stop  chan struct{}
	done  chan struct{}
	mb    []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), mb: make([]float64, 0, 4096)}
	s.statm, _ = os.Open("/proc/self/statm")
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

// sample appends the resident set in MB: the second field of statm, in pages.
func (s *rssSampler) sample() {
	if s.statm == nil {
		return
	}
	n, _ := s.statm.ReadAt(s.buf[:], 0)
	var pages, field int
	for _, c := range s.buf[:n] {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + int(c-'0')
		}
	}
	s.mb = append(s.mb, float64(pages*os.Getpagesize())/(1<<20))
}

// finish stops sampling and returns the median and the largest sample, MB
// (zeros where /proc is missing).
func (s *rssSampler) finish() (median, peak float64) {
	close(s.stop)
	<-s.done
	if s.statm == nil {
		return 0, 0
	}
	s.sample()
	s.statm.Close()
	return stat.Median(s.mb), slices.Max(s.mb)
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Machine is the fingerprint every run.json carries.
type Machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit,omitempty"`
}

func fingerprint() Machine {
	return Machine{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitCommit resolves HEAD from the .git directory in the working directory,
// without running git, so a checkout that is not a repository has none.
func gitCommit() string {
	const gitDir = ".git"
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}
