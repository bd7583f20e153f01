package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Host records where and on what a result was measured.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// Commit is the git commit of the tree, or "none" outside a git
	// checkout; Source hashes the program's Go sources either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	// Windows are the instruction windows of the workload's simulations.
	Windows map[string]uint64 `json:"windows"`
	Seed    uint64            `json:"seed"`
}

// HostRecord describes this host and the program tree rooted at root
// for a run of workload at seed.
func HostRecord(root, workload string, seed uint64) Host {
	h := Host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		Commit:     "none",
		Source:     sourceHash(root),
		Seed:       seed,
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if set, ok := figureSets[workload]; ok {
		h.Windows = map[string]uint64{"warmup": figWarmup, "measure": figMeasure,
			"multi_warmup": figMultiWarmup, "multi_measure": figMultiMeasure, "mixes": figMixes,
			"batches": uint64(set.batches)}
	} else {
		h.Windows = map[string]uint64{"single_warmup": singleWarmup, "single_measure": singleMeasure,
			"replay_warmup": replayWarmup, "replay_measure": replayMeasure,
			"mix_warmup": mixWarmup, "mix_measure": mixMeasure, "corpus_records": corpusRecords}
	}
	return h
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
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

// sourceHash hashes go.mod and every .go file under cmd/ and internal/
// of the program tree, in path order, so a result names the exact
// program it measured even without git.
func sourceHash(root string) string {
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
