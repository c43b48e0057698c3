package main

// verdict is the output check of one run of n iterations.
type verdict struct {
	frames     int // iterations attempted
	wrong      int // frames matching no reachable configuration
	missing    int // iterations the sink never consumed
	duplicate  int // extra frames for an iteration, or beyond the last
	badSwitch  int // configuration switches the trigger cannot explain
	cfgs       []int
	switchLags []int // per switch: iterations since the firing that caused it
}

// pipelineDepth is the runtime's default number of iterations in flight.
// A trigger firing in iteration f can reconfigure iterations from
// f-(pipelineDepth-1) on, whose manager entry may not have run yet.
const pipelineDepth = 5

func (v verdict) failed() int { return v.wrong + v.missing + v.duplicate + v.badSwitch }

// check judges a run's sink records against the reference. On the real
// backend a reconfiguration lands on an iteration that depends on
// timing, so each frame only has to match the reference of one of the
// configurations the trigger can select; then the sequence of
// configurations must be explained by the firings: there are no more
// switches than firings, and the k-th switch lands no earlier than the
// oldest iteration still in flight when the k-th firing ran.
func check(a *benchApp, recs []sinkRecord, n int) verdict {
	v := verdict{frames: n, cfgs: make([]int, n)}
	seen := make([]bool, n)
	for i := range v.cfgs {
		v.cfgs[i] = -1
	}
	for _, r := range recs {
		if r.iter < 0 || r.iter >= n || seen[r.iter] {
			v.duplicate++
			continue
		}
		seen[r.iter] = true
		for _, c := range a.configs {
			if r.hash == a.hash(c, r.iter) {
				v.cfgs[r.iter] = c
				break
			}
		}
		if v.cfgs[r.iter] < 0 {
			v.wrong++
		}
	}
	firings := a.triggerFirings(n)
	cur, k := a.initial, 0
	for i := 0; i < n; i++ {
		if !seen[i] {
			v.missing++
			continue
		}
		c := v.cfgs[i]
		if c < 0 || c == cur {
			continue
		}
		if k < len(firings) && i >= firings[k]-(pipelineDepth-1) {
			v.switchLags = append(v.switchLags, i-firings[k])
			k++
		} else {
			v.badSwitch++
		}
		cur = c
	}
	return v
}
