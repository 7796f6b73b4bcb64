package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/explore"
)

// refFile holds the reference outputs recorded with --record. Sweep and
// circuit documents are pinned by digest; the stochastic estimators also
// keep the estimates their confidence-interval checks compare against.
type refFile struct {
	// Sweeps maps a registered sweep to the digest of its analytic JSON
	// document at sweepSeed.
	Sweeps map[string]string `json:"sweeps"`
	// Circuits maps a circuit-des input to the digest of its des document.
	Circuits map[string]string `json:"circuits"`
	// ServeCircuits maps a serve-mix circuit to the digest of its analytic
	// document at sweepSeed.
	ServeCircuits map[string]string `json:"serve_circuits"`
	// Naive holds the digest of the naive montecarlo document at pool
	// seed i+1.
	Naive []string `json:"naive"`
	// Bitsliced holds per-point logical fault counts at pool seed i+1.
	Bitsliced []struct {
		Faults []float64 `json:"faults"`
	} `json:"bitsliced"`
	// Rare holds per-point estimates and standard errors at pool seed i+1.
	Rare []struct {
		Rate   []float64 `json:"rate"`
		StdErr []float64 `json:"stderr"`
	} `json:"rare"`
	// ConcatL2 holds per-cell level-2 fault counts at pool seed i+1.
	ConcatL2 [][]int `json:"concat_l2"`
}

//go:embed refs.json
var refsJSON []byte

var refs refFile

func loadRefs() error {
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return fmt.Errorf("refs.json: %w", err)
	}
	if len(refs.Naive) != naivePool || len(refs.Bitsliced) != bitslicedPool ||
		len(refs.Rare) != rarePool || len(refs.ConcatL2) != l2Pool {
		return fmt.Errorf("refs.json: pool sizes do not match the benchmark; re-record it")
	}
	return nil
}

func digest(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

var seedField = []byte("\n  \"seed\": ")

// canonicalDigest checks that doc echoes seed and returns the digest of
// doc with its seed field set to sweepSeed. Deterministic sweeps differ
// across seeds in that field alone, so one reference covers every seed.
func canonicalDigest(doc []byte, seed int64) (string, error) {
	i := bytes.Index(doc, seedField)
	if i < 0 {
		return "", fmt.Errorf("document has no seed field")
	}
	i += len(seedField)
	j := bytes.IndexByte(doc[i:], ',')
	if j < 0 {
		return "", fmt.Errorf("unterminated seed field")
	}
	j += i
	got, err := strconv.ParseInt(string(doc[i:j]), 10, 64)
	if err != nil || got != seed {
		return "", fmt.Errorf("document seed %q, want %d", doc[i:j], seed)
	}
	var buf bytes.Buffer
	buf.Write(doc[:i])
	buf.WriteString(strconv.Itoa(sweepSeed))
	buf.Write(doc[j:])
	return digest(buf.Bytes()), nil
}

// checkDoc compares a deterministic document against its reference. kind
// selects the table: sweep, circuit or serve-circuit.
func checkDoc(kind, key string, doc []byte, seed int64) bool {
	var table map[string]string
	switch kind {
	case "sweep":
		table = refs.Sweeps
	case "circuit":
		table = refs.Circuits
	case "serve-circuit":
		table = refs.ServeCircuits
	}
	want, ok := table[key]
	got, err := canonicalDigest(doc, seed)
	if !ok || err != nil || got != want {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: output differs from the reference (%v)\n", kind, key, err)
		return false
	}
	return true
}

// poolCheck compares stochastic estimates with their references, pooled
// per estimator and point over a whole run. Each pooled comparison
// asks that the two estimates agree within their combined 95% confidence
// interval, Bonferroni-corrected over the comparisons of the run, so a
// legitimately changed random stream fails a run with at most 5%
// probability. Identical estimates always pass.
type poolCheck struct {
	cells map[string]*poolCell
}

type poolCell struct {
	binomial bool
	// binomial: fault and trial sums; estimate: rate and variance sums.
	a, b, ra, rb float64
	n            int
	bad          bool
}

func newPoolCheck() *poolCheck { return &poolCheck{cells: make(map[string]*poolCell)} }

func (c *poolCheck) cell(key string, binomial bool) *poolCell {
	pc, ok := c.cells[key]
	if !ok {
		pc = &poolCell{binomial: binomial}
		c.cells[key] = pc
	}
	return pc
}

// binomial adds faults/trials against reference faults/trials.
func (c *poolCheck) binomial(key string, faults, trials, refFaults, refTrials float64) {
	pc := c.cell(key, true)
	pc.bad = pc.bad || math.IsNaN(faults)
	pc.a, pc.b, pc.ra, pc.rb = pc.a+faults, pc.b+trials, pc.ra+refFaults, pc.rb+refTrials
	pc.n++
}

// estimate adds a rate with its standard error against the reference.
func (c *poolCheck) estimate(key string, rate, stderr, refRate, refStderr float64) {
	pc := c.cell(key, false)
	pc.bad = pc.bad || math.IsNaN(rate) || math.IsNaN(stderr)
	pc.a, pc.b = pc.a+rate, pc.b+stderr*stderr
	pc.ra, pc.rb = pc.ra+refRate, pc.rb+refStderr*refStderr
	pc.n++
}

// failures returns how many pooled comparisons fail.
func (c *poolCheck) failures() int {
	if len(c.cells) == 0 {
		return 0
	}
	z := math.Sqrt2 * math.Erfinv(1-0.05/float64(len(c.cells)))
	keys := make([]string, 0, len(c.cells))
	for k := range c.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failed := 0
	for _, k := range keys {
		pc := c.cells[k]
		var est, ref, se float64
		if pc.binomial {
			est, ref = pc.a/pc.b, pc.ra/pc.rb
			pooled := (pc.a + pc.ra) / (pc.b + pc.rb)
			se = math.Sqrt(pooled * (1 - pooled) * (1/pc.b + 1/pc.rb))
		} else {
			n := float64(pc.n)
			est, ref = pc.a/n, pc.ra/n
			se = math.Sqrt(pc.b+pc.rb) / n
		}
		if !pc.bad && (est == ref || math.Abs(est-ref) <= z*se) {
			continue
		}
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: estimate %g vs reference %g outside %.2f standard errors (%g)\n", k, est, ref, z, se)
	}
	return failed
}

// recordRefs recomputes every reference output with the program in this
// checkout and writes the reference file.
func recordRefs(ctx context.Context, path string) error {
	rf := refFile{Sweeps: map[string]string{}, Circuits: map[string]string{}, ServeCircuits: map[string]string{}}
	names := append(append([]string(nil), analyticSweeps...), serveSweeps...)
	exps, err := lookupAll(names)
	if err != nil {
		return err
	}
	for _, exp := range exps {
		doc, _, err := sweepDoc(ctx, exp, "analytic", "", sweepSeed, nil)
		if err != nil {
			return err
		}
		rf.Sweeps[exp.Name] = digest(doc)
	}
	// record pins each generated circuit's document; expName names the
	// experiment as its caller does (the serve API always says "request").
	record := func(table map[string]string, kinds []string, widths []int, engine, expName string) error {
		for _, k := range kinds {
			for _, w := range widths {
				c, err := kernelCircuit(k, w)
				if err != nil {
					return err
				}
				name := fmt.Sprintf("%s-%d", k, w)
				n := expName
				if n == "" {
					n = name
				}
				doc, _, err := circuitDoc(ctx, n, circuit.FormatString(c), engine, nil)
				if err != nil {
					return err
				}
				table[name] = digest(doc)
			}
		}
		return nil
	}
	if err := record(rf.Circuits, desKinds, desWidths, "des", ""); err != nil {
		return err
	}
	if err := record(rf.ServeCircuits, serveKinds, serveWidths, "analytic", serveCircuitName); err != nil {
		return err
	}
	mc, err := newMCRunner(0)
	if err != nil {
		return err
	}
	for s := 1; s <= naivePool; s++ {
		doc, _, err := sweepDoc(ctx, mc.exps[explore.EstimatorNaive], "analytic", "", int64(s), nil)
		if err != nil {
			return err
		}
		rf.Naive = append(rf.Naive, digest(doc))
	}
	mcDocAt := func(est string, s int) (*mcDoc, error) {
		doc, _, err := sweepDoc(ctx, mc.exps[est], "analytic", est, int64(s), nil)
		if err != nil {
			return nil, err
		}
		var md mcDoc
		return &md, json.Unmarshal(doc, &md)
	}
	rf.Bitsliced = make([]struct {
		Faults []float64 `json:"faults"`
	}, bitslicedPool)
	for s := 1; s <= bitslicedPool; s++ {
		md, err := mcDocAt(explore.EstimatorBitSliced, s)
		if err != nil {
			return err
		}
		for i := range md.Points {
			rf.Bitsliced[s-1].Faults = append(rf.Bitsliced[s-1].Faults, md.metric(i, "logical_faults"))
		}
	}
	rf.Rare = make([]struct {
		Rate   []float64 `json:"rate"`
		StdErr []float64 `json:"stderr"`
	}, rarePool)
	for s := 1; s <= rarePool; s++ {
		md, err := mcDocAt(explore.EstimatorRare, s)
		if err != nil {
			return err
		}
		for i := range md.Points {
			rf.Rare[s-1].Rate = append(rf.Rare[s-1].Rate, md.metric(i, "logical_rate"))
			rf.Rare[s-1].StdErr = append(rf.Rare[s-1].StdErr, md.metric(i, "stderr"))
		}
	}
	for s := 1; s <= l2Pool; s++ {
		rf.ConcatL2 = append(rf.ConcatL2, mc.concatGrid(ctx, s))
	}
	out, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
