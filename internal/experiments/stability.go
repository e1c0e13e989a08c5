package experiments

import (
	"fmt"
	"math"

	"smtavf/internal/campaign"
	"smtavf/internal/workload"
)

// Stability reruns the Figure 1 measurement at several seeds and reports
// the mean and relative spread of each structure's AVF — the confidence
// check behind reporting single-seed figures. Synthetic workloads
// resample their dynamic behaviour (branch outcomes, addresses) per seed,
// so the spread measures how much of each figure is signal.
func (r *Runner) Stability(seeds int) ([]*Table, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: stability needs >= 2 seeds")
	}
	ss := paperStructs()
	mean := NewTable("Stability: mean AVF over seeds (4 contexts, ICOUNT, group A)",
		structNames(ss), kindNames())
	mean.Percent = true
	mean.Note = fmt.Sprintf("%d seeds", seeds)
	spread := NewTable("Stability: relative AVF spread over seeds (stddev/mean)",
		structNames(ss), kindNames())
	spread.Note = "smaller is more stable; < 0.1 means the figures are seed-robust"

	for j, k := range workload.Kinds() {
		m, err := workload.Lookup(4, k, workload.GroupA)
		if err != nil {
			return nil, err
		}
		samples := make([][]float64, len(ss))
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			res, err := r.runSpec(campaign.Spec{Mix: m.Name(), Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("stability seed %d: %w", seed, err)
			}
			for i, s := range ss {
				samples[i] = append(samples[i], res.StructAVF(s))
			}
		}
		for i := range ss {
			mu, sd := meanStd(samples[i])
			mean.Set(i, j, mu)
			if mu > 0 {
				spread.Set(i, j, sd/mu)
			}
			samples[i] = samples[i][:0]
		}
	}
	return []*Table{mean, spread}, nil
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
