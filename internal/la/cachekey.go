package la

import (
	"os"
	"runtime"
	"strings"
)

// CacheKey identifies the machine/toolchain combination a measurement is
// valid for: the CPU model string plus the Go version. Anything tuned by
// timing (the solver's preconditioner selection) is cached under it, and the
// benchmark stamps its artifacts with it.
func CacheKey() string { return cpuModel() + " | " + runtime.Version() }

// cpuModel reads the first "model name" line of /proc/cpuinfo; on systems
// without one (non-Linux, some arm64 kernels) it falls back to GOOS/GOARCH,
// which still fences a cache from crossing OS or architecture lines.
func cpuModel() string {
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}
