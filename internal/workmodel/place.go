package workmodel

import "sort"

// PlaceLPT distributes task indices across executors by the classic
// longest-processing-time-first greedy: tasks are visited heaviest first
// and each lands on the currently least-loaded executor. Deterministic:
// weight ties visit the lower task index first, load ties pick the lower
// executor. Each executor's queue is returned sorted by ascending weight
// (ties by ascending index).
//
// Its one caller is benchmark/'s workmodel.lpt_regret row, which replays
// the placement against measured times; no driver queues work any more.
func PlaceLPT(executors int, weights []float64) [][]int {
	if executors < 1 {
		executors = 1
	}
	queues := make([][]int, executors)
	if len(weights) == 0 {
		return queues
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := weights[order[a]], weights[order[b]]
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	load := make([]float64, executors)
	for _, task := range order {
		best := 0
		for e := 1; e < executors; e++ {
			if load[e] < load[best] {
				best = e
			}
		}
		w := weights[task]
		if w < 0 {
			w = 0
		}
		load[best] += w
		queues[best] = append(queues[best], task)
	}
	for _, q := range queues {
		sort.Slice(q, func(a, b int) bool {
			wa, wb := weights[q[a]], weights[q[b]]
			if wa != wb {
				return wa < wb
			}
			return q[a] < q[b]
		})
	}
	return queues
}
