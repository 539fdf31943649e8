// Package boost implements the unit-test predictor of §4.4: a gradient-
// boosted decision-tree classifier (XGBoost-style: Newton leaf weights
// on the logistic loss) trained to predict whether a generated YAML
// passes its unit test from the five text-level and YAML-aware scores,
// plus exact Shapley-value feature attribution for Figure 9(b).
package boost

import (
	"fmt"
	"math"
	"sort"
)

// Config holds training hyperparameters.
type Config struct {
	Trees        int
	MaxDepth     int
	LearningRate float64
	MinSamples   int
	// Lambda is the L2 regularization on leaf weights.
	Lambda float64
}

// DefaultConfig mirrors a small XGBoost setup adequate for five dense
// features.
func DefaultConfig() Config {
	return Config{Trees: 60, MaxDepth: 3, LearningRate: 0.2, MinSamples: 20, Lambda: 1.0}
}

// Model is a trained boosted ensemble.
type Model struct {
	Bias     float64
	Trees    []*node
	Features []string
}

type node struct {
	// Leaf fields.
	leaf  bool
	value float64
	// Split fields.
	feature   int
	threshold float64
	left      *node
	right     *node
	// cover is the fraction of training rows that reached this node,
	// used to marginalize absent features during Shapley evaluation.
	coverLeft float64
}

// Train fits a binary classifier: rows are feature vectors, labels are
// 0/1 outcomes.
func Train(rows [][]float64, labels []float64, features []string, cfg Config) (*Model, error) {
	if len(rows) == 0 || len(rows) != len(labels) {
		return nil, fmt.Errorf("boost: need matching rows and labels, got %d/%d", len(rows), len(labels))
	}
	for _, r := range rows {
		if len(r) != len(features) {
			return nil, fmt.Errorf("boost: row width %d != features %d", len(r), len(features))
		}
	}
	pos := 0.0
	for _, y := range labels {
		pos += y
	}
	p := clamp(pos/float64(len(labels)), 1e-4, 1-1e-4)
	m := &Model{Bias: math.Log(p / (1 - p)), Features: features}

	f := make([]float64, len(rows)) // current margins
	for i := range f {
		f[i] = m.Bias
	}
	grad := make([]float64, len(rows))
	hess := make([]float64, len(rows))
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < cfg.Trees; t++ {
		for i := range rows {
			pi := sigmoid(f[i])
			grad[i] = labels[i] - pi
			hess[i] = pi * (1 - pi)
		}
		tree := buildTree(rows, grad, hess, idx, cfg, 0)
		m.Trees = append(m.Trees, tree)
		for i := range rows {
			f[i] += cfg.LearningRate * tree.eval(rows[i])
		}
	}
	// Bake the learning rate into leaf values for simpler inference.
	for _, tr := range m.Trees {
		scaleLeaves(tr, cfg.LearningRate)
	}
	return m, nil
}

func scaleLeaves(n *node, lr float64) {
	if n.leaf {
		n.value *= lr
		return
	}
	scaleLeaves(n.left, lr)
	scaleLeaves(n.right, lr)
}

func buildTree(rows [][]float64, grad, hess []float64, idx []int, cfg Config, depth int) *node {
	sumG, sumH := 0.0, 0.0
	for _, i := range idx {
		sumG += grad[i]
		sumH += hess[i]
	}
	leaf := &node{leaf: true, value: sumG / (sumH + cfg.Lambda)}
	if depth >= cfg.MaxDepth || len(idx) < cfg.MinSamples {
		return leaf
	}
	bestGain := 1e-6
	bestFeature, bestThreshold := -1, 0.0
	nf := len(rows[idx[0]])
	parentScore := sumG * sumG / (sumH + cfg.Lambda)
	for feat := 0; feat < nf; feat++ {
		order := make([]int, len(idx))
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return rows[order[a]][feat] < rows[order[b]][feat] })
		gLeft, hLeft := 0.0, 0.0
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			gLeft += grad[i]
			hLeft += hess[i]
			v, next := rows[i][feat], rows[order[k+1]][feat]
			if v == next {
				continue
			}
			gRight, hRight := sumG-gLeft, sumH-hLeft
			gain := gLeft*gLeft/(hLeft+cfg.Lambda) + gRight*gRight/(hRight+cfg.Lambda) - parentScore
			if gain > bestGain {
				bestGain = gain
				bestFeature = feat
				bestThreshold = (v + next) / 2
			}
		}
	}
	if bestFeature < 0 {
		return leaf
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if rows[i][bestFeature] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return leaf
	}
	return &node{
		feature:   bestFeature,
		threshold: bestThreshold,
		coverLeft: float64(len(leftIdx)) / float64(len(idx)),
		left:      buildTree(rows, grad, hess, leftIdx, cfg, depth+1),
		right:     buildTree(rows, grad, hess, rightIdx, cfg, depth+1),
	}
}

func (n *node) eval(x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Margin returns the raw additive score before the sigmoid.
func (m *Model) Margin(x []float64) float64 {
	f := m.Bias
	for _, t := range m.Trees {
		f += t.eval(x)
	}
	return f
}

// PredictProba returns P(pass | features).
func (m *Model) PredictProba(x []float64) float64 { return sigmoid(m.Margin(x)) }

// expectedValue computes E[tree(x) | x_S = given] by descending the
// tree: present features follow the instance, absent features average
// both children weighted by training coverage.
func (n *node) expectedValue(x []float64, present []bool) float64 {
	if n.leaf {
		return n.value
	}
	if present[n.feature] {
		if x[n.feature] <= n.threshold {
			return n.left.expectedValue(x, present)
		}
		return n.right.expectedValue(x, present)
	}
	return n.coverLeft*n.left.expectedValue(x, present) +
		(1-n.coverLeft)*n.right.expectedValue(x, present)
}

// SHAP computes exact Shapley values of the margin for one instance by
// enumerating feature coalitions (feasible for the benchmark's five
// features). The values satisfy sum(phi) = Margin(x) - E[Margin].
func (m *Model) SHAP(x []float64) []float64 {
	nf := len(m.Features)
	// Cache v(S) for every subset mask.
	v := make([]float64, 1<<nf)
	present := make([]bool, nf)
	for mask := 0; mask < 1<<nf; mask++ {
		for j := 0; j < nf; j++ {
			present[j] = mask&(1<<j) != 0
		}
		total := m.Bias
		for _, t := range m.Trees {
			total += t.expectedValue(x, present)
		}
		v[mask] = total
	}
	fact := make([]float64, nf+1)
	fact[0] = 1
	for i := 1; i <= nf; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	phi := make([]float64, nf)
	for j := 0; j < nf; j++ {
		for mask := 0; mask < 1<<nf; mask++ {
			if mask&(1<<j) != 0 {
				continue
			}
			s := popcount(mask)
			weight := fact[s] * fact[nf-s-1] / fact[nf]
			phi[j] += weight * (v[mask|1<<j] - v[mask])
		}
	}
	return phi
}

// meanAbsSHAP averages |phi| per feature over a set of instances, the
// global importance of Figure 9(b). The per-row Shapley evaluations —
// the dominant cost, 2^5 coalition passes each — run through forEach
// (the engine's scheduler). Each row's vector lands in its own slot
// before the reduction, so the averages do not depend on schedule.
func (m *Model) meanAbsSHAP(rows [][]float64, forEach func(int, func(int))) []float64 {
	out := make([]float64, len(m.Features))
	if len(rows) == 0 {
		return out
	}
	perRow := make([][]float64, len(rows))
	forEach(len(rows), func(i int) { perRow[i] = m.SHAP(rows[i]) })
	for _, phi := range perRow {
		for j, p := range phi {
			out[j] += math.Abs(p)
		}
	}
	for j := range out {
		out[j] /= float64(len(rows))
	}
	return out
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
