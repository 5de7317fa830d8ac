package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host and process accounting read from /proc. Child processes are charged
// through /proc/<pid>/task/*/schedstat, whose first field is each thread's
// on-CPU time (user plus system) in nanoseconds; the tick-based counters of
// /proc/<pid>/stat are too coarse for a 100 ms sweep.

// taskCPU returns the summed on-CPU time of every thread of pid.
func taskCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // thread exited between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s schedstat: %w", t.Name(), err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocBytes is the cumulative count of bytes this process allocated
// on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSS returns the VmHWM (peak resident set) of pid in bytes.
func peakRSS(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// resetSelfPeakRSS returns freed heap to the OS and restarts this process's
// peak-RSS accounting, so the next VmHWM covers one measured round only.
func resetSelfPeakRSS() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+); without it the
	// peak is the process lifetime's, which only overstates.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// stealTicks returns the host's accrued steal time in USER_HZ ticks (the
// eighth value of the aggregate cpu line of /proc/stat).
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

func nproc() int { return runtime.NumCPU() }

// collectFacts records what a reader needs to compare two results: the
// processor count and model, the scheduler and toolchain settings, and the
// commit under test.
func collectFacts() map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(nproc()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source under test: git's HEAD when the checkout is a
// repository, else a digest of the Go sources and module files under the
// working directory, so two results from unversioned checkouts still show
// whether they measured the same code.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return "git:" + strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree:%x", h.Sum(nil)[:6])
}
