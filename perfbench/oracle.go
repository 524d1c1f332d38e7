package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"tridentsp/internal/core"
	"tridentsp/internal/sampling"
	"tridentsp/internal/workloads"
)

// The correctness oracle. Every (workload, kernel, budget) a seed can draw
// has a recorded results digest. Exact digests are recorded on the
// reference one-step loop (DisableFastPath), so the oracle does not trust
// the batch or JIT engines it checks; sampled digests cover the whole
// Estimate except the jobs-dependent fields, recorded at one job on the
// reference loop. Sampled entries also carry the exact-mode reference IPC
// the sampling error is measured against.

//go:embed digests.json
var digestsJSON []byte

// digestEntry is one recorded outcome. Cycles, OrigInstrs and IPC are kept
// beside the hash so a mismatch can be read without re-running anything.
type digestEntry struct {
	Digest     string  `json:"digest"`
	Cycles     int64   `json:"cycles"`
	OrigInstrs uint64  `json:"orig_instrs"`
	IPC        float64 `json:"ipc"`
	RefIPC     float64 `json:"ref_ipc,omitempty"`
}

// oracle maps digestKey strings to recorded outcomes.
type oracle map[string]digestEntry

func digestKey(workload, kernel string, budget uint64) string {
	return fmt.Sprintf("%s/%s/%d", workload, kernel, budget)
}

func loadOracle() (oracle, error) {
	var o oracle
	if err := json.Unmarshal(digestsJSON, &o); err != nil {
		return nil, fmt.Errorf("parse digests.json: %w", err)
	}
	return o, nil
}

// hashOf digests a value's JSON encoding: every exported field of Results
// (cycles, instruction counts, memory stats, coverage, DLT and optimizer
// counters), floats at full precision, map keys sorted. (A %v rendering
// would go through Results.String and miss most fields.) A value JSON
// cannot encode yields a digest no recording matches.
func hashOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

func resultsDigest(r core.Results) string { return hashOf(r) }

// estimateDigest covers the Estimate minus its jobs-dependent diagnostics
// (speculation waste) and ROI cache counters, which vary by design.
func estimateDigest(e sampling.Estimate) string {
	e.SpecWaste, e.ROIHits, e.ROIMisses = 0, 0, 0
	return hashOf(e)
}

// check compares a run's digest against the oracle.
func (o oracle) check(key, digest string) error {
	want, ok := o[key]
	if !ok {
		return fmt.Errorf("no recorded digest for %s", key)
	}
	if want.Digest != digest {
		return fmt.Errorf("digest mismatch for %s: got %s, recorded %s", key, digest, want.Digest)
	}
	return nil
}

// record computes the digests of every entry the given workloads can draw.
// Exact kernels run once per kernel on the reference loop, resumed from one
// budget to the next (Run is resumable and bit-identical to a fresh run).
func record(specs []workloadSpec, scale workloads.Scale) (oracle, error) {
	o := oracle{}
	for _, ws := range specs {
		budgets := ws.budgetsSorted()
		for _, name := range ws.kernels {
			bm, ok := workloads.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown kernel %q", name)
			}
			cfg := ws.config()
			cfg.DisableFastPath = true
			if !ws.sampled {
				sys := core.NewSystem(cfg, bm.Build(scale))
				for _, b := range budgets {
					r := sys.Run(b)
					o[digestKey(ws.name, name, b)] = digestEntry{
						Digest: resultsDigest(r), Cycles: r.Cycles, OrigInstrs: r.OrigInstrs, IPC: r.IPC()}
				}
				continue
			}
			ref := core.NewSystem(cfg, bm.Build(scale))
			for _, b := range budgets {
				exact := ref.Run(b)
				est, err := runSampled(bm, cfg, ws.smp, scale, 1, b)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%d: %w", ws.name, name, b, err)
				}
				s := est.Sampled
				o[digestKey(ws.name, name, b)] = digestEntry{Digest: estimateDigest(est),
					Cycles: s.Cycles, OrigInstrs: s.OrigInstrs, IPC: s.IPC(), RefIPC: exact.IPC()}
			}
		}
	}
	return o, nil
}

func (o oracle) write(path string) error {
	b, err := json.MarshalIndent(o, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}
