package main

import (
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"syscall"
)

// runRecord describes the run: host, toolchain, source revision, inputs and
// sample counts, so a number can be read against where it was measured.
func runRecord(name string, seed int64, seconds float64, timed bool, rounds, samples int, wl map[string]any) map[string]any {
	rec := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      timed,
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go_version": goruntime.Version(),
		"goos":       goruntime.GOOS + "/" + goruntime.GOARCH,
		"git_rev":    gitRev(),
		"rounds":     rounds,
		// Each latency percentile is the median over rounds of that round's
		// percentile; samples counts the fewest completed ops in a round.
		"latency_samples_per_round": samples,
		"samples_beyond_per_round": map[string]int{
			"p50": samples / 2, "p90": samples / 10, "p99": samples / 100,
		},
	}
	for k, v := range wl {
		rec[k] = v
	}
	return rec
}

// gitRev reads the checked-out commit from .git without running git;
// "unknown" when the tree is not a git checkout.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x65735546: "fuse", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "unknown"
}
