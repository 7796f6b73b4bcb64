package ecc

import (
	"math/rand"
	"testing"
)

func TestConcatenationSuppressesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, c := range Codes() {
		p := 0.01
		l1 := c.ConcatenatedMonteCarloX(1, p, 200000, rng)
		l2 := c.ConcatenatedMonteCarloX(2, p, 200000, rng)
		if l1.LogicalRate >= p {
			t.Errorf("%s: level 1 rate %.5f not below physical %.3f", c.Short, l1.LogicalRate, p)
		}
		if l2.LogicalRate >= l1.LogicalRate/5 {
			t.Errorf("%s: level 2 (%.6f) should be far below level 1 (%.5f)",
				c.Short, l2.LogicalRate, l1.LogicalRate)
		}
	}
}

func TestConcatenationDoubleExponentialScaling(t *testing.T) {
	// Below the pseudo-threshold, level 2's failure rate should scale like
	// the square of level 1's (up to combinatorial prefactors): check that
	// p2 is within a couple of orders of magnitude of p1²·C(n,2).
	rng := rand.New(rand.NewSource(123))
	c := Steane()
	p := 0.02
	l1 := c.ConcatenatedMonteCarloX(1, p, 300000, rng).LogicalRate
	l2 := c.ConcatenatedMonteCarloX(2, p, 300000, rng).LogicalRate
	if l1 == 0 || l2 == 0 {
		t.Skip("insufficient statistics")
	}
	// Expected level-2 rate ~ A·l1² with A the weight-2 failure fraction.
	predicted := 21 * l1 * l1 // C(7,2) pairs
	if l2 > predicted*10 || l2 < predicted/10 {
		t.Errorf("level-2 rate %.2g not within 10x of quadratic prediction %.2g (l1=%.2g)",
			l2, predicted, l1)
	}
}

func TestConcatenationAboveThresholdHurts(t *testing.T) {
	// Far above threshold, encoding amplifies errors: level 2 should be no
	// better than level 1.
	rng := rand.New(rand.NewSource(7))
	c := Steane()
	p := 0.4
	l1 := c.ConcatenatedMonteCarloX(1, p, 50000, rng).LogicalRate
	l2 := c.ConcatenatedMonteCarloX(2, p, 50000, rng).LogicalRate
	if l2 < l1/2 {
		t.Errorf("above threshold, level 2 (%.3f) should not beat level 1 (%.3f)", l2, l1)
	}
}

// pseudoThreshold estimates the code's level-1 pseudo-threshold for X
// errors: the physical rate at which one level of encoding stops helping
// (logical rate equals physical rate). It bisects on the bit-sliced
// estimate; trials bounds the per-point sample count.
func pseudoThreshold(c *Code, trials int, seed int64) float64 {
	lo, hi := 1e-4, 0.5
	for i := 0; i < 18; i++ {
		mid := (lo + hi) / 2
		r := c.Estimate(Spec{Estimator: EstimatorBitSliced, P: mid, Trials: trials, Seed: seed + int64(i)})
		if r.LogicalRate < mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func TestPseudoThreshold(t *testing.T) {
	for _, c := range Codes() {
		th := pseudoThreshold(c, 20000, 31)
		// Code-capacity pseudo-thresholds for distance-3 CSS codes sit in
		// the percent range — far above the circuit-level thresholds of
		// Table 2's analysis, as expected for this idealized noise model.
		if th < 0.005 || th > 0.35 {
			t.Errorf("%s: pseudo-threshold %.4f outside plausible range", c.Short, th)
		}
		// Below it, encoding helps.
		below := c.Estimate(Spec{P: th / 4, Trials: 100000, Seed: 32})
		if below.LogicalRate >= th/4 {
			t.Errorf("%s: encoding should help at p=%.4f", c.Short, th/4)
		}
	}
}

func TestConcatenatedPanicsOnLevelZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Steane().ConcatenatedMonteCarloX(0, 0.01, 10, rand.New(rand.NewSource(1)))
}

func BenchmarkConcatenatedMCLevel2(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	c := BaconShor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ConcatenatedMonteCarloX(2, 0.01, 1000, rng)
	}
}
