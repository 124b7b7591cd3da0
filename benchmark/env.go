package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment is recorded in every result, so a number can be traced back
// to the machine, toolchain and commit that produced it.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	SpillDir   string `json:"spill_dir"`
	SpillFS    string `json:"spill_fs"`
	Commit     string `json:"commit"`
	// MemLatencyNS is the cost of one dependent load from a 16 MB array,
	// taken as the run starts. On a shared host it drifts by tens of
	// percent with the neighbours' memory traffic, and the timings of a
	// workload whose heap outgrows the cache drift with it: two results
	// whose latencies differ were not measured on the same machine.
	MemLatencyNS float64 `json:"mem_latency_ns"`
}

func recordEnvironment(root string) environment {
	commit := os.Getenv("BENCH_COMMIT") // set by run.sh; a checkout may have no .git
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		SpillDir:   root,
		SpillFS:    fsType(root),
		Commit:     commit,

		MemLatencyNS: memLatencyNS(),
	}
}

// memLatencyNS chases pointers through a random cycle over 4M words.
func memLatencyNS() float64 {
	const words, loads = 4 << 20, 1 << 20
	next := make([]uint32, words)
	for i, j := range rand.New(rand.NewSource(1)).Perm(words) {
		next[i] = uint32(j)
	}
	at := uint32(0)
	t0 := time.Now()
	for i := 0; i < loads; i++ {
		at = next[at]
	}
	ns := float64(time.Since(t0).Nanoseconds()) / loads
	if at == words { // never: keeps the chase from being optimised away
		return 0
	}
	return ns
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fsNames maps statfs magic numbers to names for the file systems a spill
// directory is likely to sit on.
var fsNames = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func fsType(dir string) string {
	// The spill root may not exist yet; its nearest existing parent is on
	// the file system it will be created on.
	for {
		var st syscall.Statfs_t
		if err := syscall.Statfs(dir, &st); err == nil {
			if name, ok := fsNames[int64(st.Type)]; ok {
				return name
			}
			return fmt.Sprintf("0x%x", st.Type)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return "unknown"
}
