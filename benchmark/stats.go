package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). +Inf samples stand
// for failed operations, so a quantile that lands among them is +Inf.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB reads the process's resident-memory high-water mark
// (VmHWM) from /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, sc.Err()
}

// envInfo is what every report records about the machine and the code.
type envInfo struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
	// CPUProbeMS is the median time to hash 16 MiB with SHA-256, a
	// fixed piece of work outside the program under test: when it moves
	// between runs, the machine's speed moved, not the program's.
	CPUProbeMS float64 `json:"cpu_probe_ms"`
}

func readEnv(seed int64) envInfo {
	e := envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	e.SourceSHA256 = sourceDigest(".")
	e.CPUProbeMS = cpuProbe()
	return e
}

func cpuProbe() float64 {
	buf := make([]byte, 16<<20)
	var ts []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		sha256.Sum256(buf)
		ts = append(ts, ms(time.Since(t)))
	}
	return median(ts)
}

// sourceDigest hashes every Go source and go.mod file of the module
// checkout under root, so a report identifies the code it measured even
// where no version-control metadata exists. Unreadable trees give "".
func sourceDigest(root string) string {
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
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest is an order-sensitive hash of a run's outputs, so two runs of
// one seed can be compared byte for byte.
type digest struct{ buf bytes.Buffer }

func (d *digest) add(parts ...string) {
	for _, p := range parts {
		d.buf.WriteString(p)
		d.buf.WriteByte('\t')
	}
	d.buf.WriteByte('\n')
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.buf.Bytes())
	return hex.EncodeToString(s[:8])
}

// sample is one completed closed-loop item: when it completed, its
// latency, and the reads and bases it carried.
type sample struct {
	at    time.Time
	latMS float64
	reads int
	bases int
}
