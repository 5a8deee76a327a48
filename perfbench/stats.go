package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"provnet"
)

// median returns the middle value (mean of the middle two), 0 when empty.
func median(vs []float64) float64 { return percentile(vs, 50) }

// percentile interpolates linearly between closest ranks.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// scrape reads a metrics registry through its Prometheus exposition,
// summing series of one family across labels: the same numbers an
// operator scraping /metrics sees.
func scrape(regs ...*provnet.Metrics) map[string]float64 {
	out := map[string]float64{}
	for _, m := range regs {
		if m == nil {
			continue
		}
		var b bytes.Buffer
		_ = m.WritePrometheus(&b)
		sc := bufio.NewScanner(&b)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				if strings.Contains(name[i:], "le=") {
					continue // histogram buckets
				}
				name = name[:i]
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err == nil {
				out[name] += v
			}
		}
	}
	return out
}

// sourceIdentity names the source a run was built from: the git commit
// when the checkout is a repository, and always a digest of the Go
// sources and module files, which identifies checkouts that are not.
func sourceIdentity() (commit, digest string) {
	commit = "unknown"
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				commit = strings.TrimSpace(string(b))
			} else if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
				for _, l := range strings.Split(string(packed), "\n") {
					if f := strings.Fields(l); len(f) == 2 && f[1] == r {
						commit = f[0]
					}
				}
			}
		} else {
			commit = ref
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err == nil {
				h.Write([]byte(path + "\x00"))
				h.Write(b)
			}
		}
		return nil
	})
	return commit, hex.EncodeToString(h.Sum(nil))
}

// storeFS names the file system the traceback-serve store log lives on.
func storeFS() string {
	dir := scratchDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// cpuTicks reads the host's CPU time counters from /proc/stat: ticks
// stolen by the hypervisor and all ticks. ok is false off Linux.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// scratchDir is where runs keep store logs and span files: inside the
// checkout, under the build directory the repository ignores.
func scratchDir() string { return filepath.Join(".bench_build", "perfbench") }
