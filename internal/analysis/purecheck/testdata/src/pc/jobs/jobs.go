// Package jobs exercises the sweep-job classes purecheck reports (writes
// to state shared across jobs or at package level) and the accepted
// shapes (pre-indexed result slots, loop inputs, a suppression).
package jobs

import "tdcache/internal/sweep"

// shared is package-level state no sweep job may write.
var shared int

// Good writes only to its pre-indexed slot: accepted.
func Good(p *sweep.Pool, n int) []float64 {
	res := make([]float64, n)
	p.Run(n, func(job int, w *sweep.Worker) {
		res[job] = float64(job)
	})
	return res
}

// GoodDerived indexes through closure-locals derived from the job
// index (the fig10/fig12 shape): accepted.
func GoodDerived(p *sweep.Pool, n int) [][3]float64 {
	res := make([][3]float64, n)
	p.Run(n*3, func(job int, w *sweep.Worker) {
		ci, si := job/3, job%3
		res[ci][si] = float64(job)
	})
	return res
}

// Accumulate adds into state shared by every job, so the result
// depends on completion order.
func Accumulate(p *sweep.Pool, n int) float64 {
	var total float64
	p.Run(n, func(job int, w *sweep.Worker) {
		total += float64(job) // want `sweep job writes to total \(state shared across jobs\)`
		shared++              // want `sweep job writes to shared \(package-level state\)`
	})
	return total
}

// LoopInput reads the submitting loop's variable: accepted, since each
// iteration has its own variable and Run blocks until every job ends.
func LoopInput(p *sweep.Pool, specs []int) []int {
	res := make([]int, len(specs))
	for _, s := range specs {
		p.Run(len(specs), func(job int, w *sweep.Worker) {
			res[job] = s
		})
	}
	return res
}

// AllowedJob demonstrates an accepted suppression.
func AllowedJob(p *sweep.Pool, n int) int {
	hits := 0
	p.Run(n, func(job int, w *sweep.Worker) {
		//lint:allow purecheck fixture exercising the suppression path
		hits++
	})
	return hits
}
