package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"strings"

	"algossip/internal/gf"
)

// attribution identifies what produced a result: the code, the machine and
// the run's settings.
type attribution struct {
	Commit      string `json:"commit"`
	SourceHash  string `json:"source_sha256"`
	CPU         string `json:"cpu_model"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GOARCH      string `json:"goarch"`
	GoVersion   string `json:"go_version"`
	GFTier      string `json:"gf_tier"`
	Shards      int    `json:"shards"`
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
	Traced      bool   `json:"traced"`
}

func attribute(c config) attribution {
	shards := 0
	if c.w.sharded {
		shards = c.shards
	}
	return attribution{
		Commit:      commit(),
		SourceHash:  sourceHash("."),
		CPU:         cpuModel(),
		NProc:       goruntime.NumCPU(),
		GOMAXPROCS:  goruntime.GOMAXPROCS(0),
		GOARCH:      goruntime.GOARCH,
		GoVersion:   goruntime.Version(),
		GFTier:      gf.TierInfo(),
		Shards:      shards,
		Workload:    c.w.name,
		Seed:        c.seed,
		HeldOutSeed: heldOutSeed,
		Traced:      c.traced,
	}
}

// commit is the VCS revision the binary was built from, with "+dirty" for
// uncommitted changes, or "unknown" when it was built outside a checkout
// with history; the source hash identifies the code then.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

// sourceHash digests every Go source and go.mod file under root (paths
// and contents, in walk order), skipping hidden directories such as the
// build cache, so two results share a hash only if they ran the same code.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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
