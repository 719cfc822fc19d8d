package cogadb

import "fmt"

// hype is the self-adapting query optimizer of CoGaDB (Breß & Saake,
// "Why it is time for a HyPE", 2013): it learns per-placement cost models
// from observed execution times and balances operators between the
// compute devices. The model here is the one HyPE ships with for single
// operators: a running linear estimate of nanoseconds per input element
// per (operator, placement) pair, with epsilon-greedy exploration so a
// placement that was slow once still gets re-probed as data sizes change.
type hype struct {
	models  map[string]*costModel
	epsilon float64
	step    uint64
}

// costModel is a per-(operator, placement) running estimate.
type costModel struct {
	samples  uint64
	nsPerElt float64
}

// newHype creates a scheduler with the given exploration rate.
func newHype(epsilon float64) *hype {
	if epsilon <= 0 || epsilon >= 1 {
		epsilon = 0.05
	}
	return &hype{models: make(map[string]*costModel), epsilon: epsilon}
}

// key names one (operator, placement) pair.
func key(op, placement string) string { return op + "@" + placement }

// estimate predicts the cost of running op on placement over n elements;
// unknown pairs estimate optimistically at zero so they get tried.
func (h *hype) estimate(op, placement string, n int64) float64 {
	m := h.models[key(op, placement)]
	if m == nil || m.samples == 0 {
		return 0
	}
	return m.nsPerElt * float64(n)
}

// Choose picks a placement for op over n elements: usually the cheapest
// estimate, with epsilon-greedy exploration of the alternatives. The
// decision is deterministic given the call sequence (the exploration
// trigger is a counter, not a random source), keeping harness runs
// reproducible.
func (h *hype) Choose(op string, n int64, placements []string) string {
	if len(placements) == 0 {
		return ""
	}
	h.step++
	if h.epsilon > 0 && h.step%uint64(1/h.epsilon) == 0 {
		return placements[int(h.step/uint64(1/h.epsilon))%len(placements)]
	}
	best := placements[0]
	bestNs := h.estimate(op, best, n)
	for _, p := range placements[1:] {
		ns := h.estimate(op, p, n)
		if ns < bestNs {
			best, bestNs = p, ns
		}
	}
	return best
}

// Observe feeds one measured execution back into the model.
func (h *hype) Observe(op, placement string, n int64, elapsedNs float64) {
	if n <= 0 {
		return
	}
	k := key(op, placement)
	m := h.models[k]
	if m == nil {
		m = &costModel{}
		h.models[k] = m
	}
	perElt := elapsedNs / float64(n)
	m.samples++
	// Exponentially-weighted update keeps the model adaptive to workload
	// and data-size shifts.
	const alpha = 0.3
	if m.samples == 1 {
		m.nsPerElt = perElt
	} else {
		m.nsPerElt = (1-alpha)*m.nsPerElt + alpha*perElt
	}
}

// String summarizes the learned models.
func (h *hype) String() string {
	return fmt.Sprintf("hype{%d models, eps=%.2f}", len(h.models), h.epsilon)
}
