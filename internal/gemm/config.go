// Package gemm defines the paper's model autotuning problem (§IX): the
// search space of the GEMM kernel C <- alpha*A*B + beta*C for NVIDIA GPUs,
// with the 15 iterators of Figure 11, the derived variables of Figure 12,
// and the hard, soft, and correctness pruning constraints of Figures 13-15.
//
// The space is parameterized — exactly as in Figure 10 — by precision,
// arithmetic, and the two transposition flags; the autotuning process runs
// separately for each of the 16 combinations (4 precisions x 4 transpose
// cases). Device information enters as settings from internal/device.
package gemm

import (
	"fmt"
	"strings"

	"repro/internal/device"
)

// Config selects one autotuning session, mirroring Figure 10's globals.
type Config struct {
	// Precision is "single" or "double".
	Precision string
	// Arithmetic is "real" or "complex".
	Arithmetic string
	// TransA and TransB are 0 (not transposed) or 1 (transposed).
	TransA, TransB int64
	// Device supplies the Figure 8/9 parameters. Nil means Tesla K40c,
	// the paper's device.
	Device *device.Properties
	// MinThreadsPerMultiprocessor is the occupancy floor of Figure 14
	// (default 256).
	MinThreadsPerMultiprocessor int64
	// MinFMAsPerLoad is the arithmetic-intensity floor of Figure 14
	// (default 2).
	MinFMAsPerLoad int64
}

// Default returns the paper's headline configuration: DGEMM (double
// precision real), A and B not transposed, on the Tesla K40c.
func Default() Config {
	return Config{
		Precision:                   "double",
		Arithmetic:                  "real",
		TransA:                      0,
		TransB:                      0,
		Device:                      device.TeslaK40c(),
		MinThreadsPerMultiprocessor: 256,
		MinFMAsPerLoad:              2,
	}
}

// ByName returns the configuration for a BLAS-style kernel name: "sgemm"
// (single real), "dgemm" (double real), "cgemm" (single complex), "zgemm"
// (double complex), optionally suffixed with "_nt", "_tn", "_tt" for the
// transpose case (default "_nn").
func ByName(name string) (Config, error) {
	cfg := Default()
	n := strings.ToLower(strings.TrimSpace(name))
	base := n
	if i := strings.IndexByte(n, '_'); i >= 0 {
		base = n[:i]
		switch n[i+1:] {
		case "nn":
			cfg.TransA, cfg.TransB = 0, 0
		case "nt":
			cfg.TransA, cfg.TransB = 0, 1
		case "tn":
			cfg.TransA, cfg.TransB = 1, 0
		case "tt":
			cfg.TransA, cfg.TransB = 1, 1
		default:
			return cfg, fmt.Errorf("gemm: unknown transpose case %q", n[i+1:])
		}
	}
	switch base {
	case "sgemm":
		cfg.Precision, cfg.Arithmetic = "single", "real"
	case "dgemm":
		cfg.Precision, cfg.Arithmetic = "double", "real"
	case "cgemm":
		cfg.Precision, cfg.Arithmetic = "single", "complex"
	case "zgemm":
		cfg.Precision, cfg.Arithmetic = "double", "complex"
	default:
		return cfg, fmt.Errorf("gemm: unknown kernel %q (want sgemm/dgemm/cgemm/zgemm)", base)
	}
	return cfg, nil
}

// Validate checks the configuration fields.
func (c Config) Validate() error {
	if c.Precision != "single" && c.Precision != "double" {
		return fmt.Errorf("gemm: precision %q (want single or double)", c.Precision)
	}
	if c.Arithmetic != "real" && c.Arithmetic != "complex" {
		return fmt.Errorf("gemm: arithmetic %q (want real or complex)", c.Arithmetic)
	}
	if c.TransA != 0 && c.TransA != 1 {
		return fmt.Errorf("gemm: trans_a %d (want 0 or 1)", c.TransA)
	}
	if c.TransB != 0 && c.TransB != 1 {
		return fmt.Errorf("gemm: trans_b %d (want 0 or 1)", c.TransB)
	}
	if c.Device == nil {
		return fmt.Errorf("gemm: nil device")
	}
	return nil
}

// Name returns the BLAS-style kernel name of the configuration.
func (c Config) Name() string {
	var b byte
	switch {
	case c.Precision == "single" && c.Arithmetic == "real":
		b = 's'
	case c.Precision == "double" && c.Arithmetic == "real":
		b = 'd'
	case c.Precision == "single" && c.Arithmetic == "complex":
		b = 'c'
	default:
		b = 'z'
	}
	t := func(v int64) byte {
		if v == 0 {
			return 'n'
		}
		return 't'
	}
	return fmt.Sprintf("%cgemm_%c%c", b, t(c.TransA), t(c.TransB))
}
