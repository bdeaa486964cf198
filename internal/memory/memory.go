// Package memory implements the shared long-term learning memory of
// §III.B/§IV.B: every site agent records its recent learning experiences
// (bounded to 15 learning cycles per agent) in a store visible to all
// agents, and agents consult each other's experiences — in particular the
// action with the maximum learning value l_val — to improve decisions.
//
// The store is single-threaded by design: the discrete-event simulation
// engine serialises all agent activity, so the "communication link between
// the shared-learning memory and all agents" (assumed contention-free at
// uniform speed in the paper) is a plain method call here.
package memory

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rlsched/internal/grouping"
)

// CapacityPerAgent is the paper's bound: "Each agent is limited to keep
// and update 15 cycles of its learning experiences in the shared-learning
// memory" (§III.B).
const CapacityPerAgent = 15

// State is the observed node/site state vector the agent conditioned its
// action on: S_c(t) = (Load, q−, PP_1..m) summarised into fixed features.
type State struct {
	// Load is the total processing weight queued at the chosen node.
	Load float64
	// FreeSlots is q−, the available queue spaces at the chosen node.
	FreeSlots float64
	// MeanPower is the mean instantaneous processor power of the node (W).
	MeanPower float64
	// SiteLoad is the aggregate queued weight across the agent's site,
	// normalising for how congested the agent's domain was.
	SiteLoad float64
}

// features returns the state's fixed-size feature array.
func (s State) features() [4]float64 {
	return [4]float64{s.Load, s.FreeSlots, s.MeanPower, s.SiteLoad}
}

// Vector returns the state as a feature slice (for the neural network).
func (s State) Vector() []float64 {
	v := s.features()
	return v[:]
}

// distance is a squared Euclidean distance on normalised features.
func (s State) distance(o State) float64 {
	d := 0.0
	a, b := s.features(), o.features()
	for i := range a {
		scale := max(1, max(math.Abs(a[i]), math.Abs(b[i])))
		diff := (a[i] - b[i]) / scale
		d += diff * diff
	}
	return d
}

// Similarity maps distance into (0, 1], 1 meaning identical states.
func (s State) Similarity(o State) float64 {
	return math.Exp(-s.distance(o))
}

// Action is the decision the agent took: the grouping parameters of
// §IV.D.1. (Placement is re-derived from the live node states at decision
// time, so it is not memorised.)
type Action struct {
	// Opnum is the group size the agent targeted.
	Opnum int
	// Mode is the merge policy (mixed or identical priority).
	Mode grouping.Mode
}

// Experience is one learning cycle's outcome: the (state, action) pair,
// its dual feedback (reward of Eq. 8, error of Eq. 9), and the resulting
// learning value l_val = reward/error (Eq. 7).
type Experience struct {
	// AgentID identifies the recording agent.
	AgentID int
	// Cycle is the agent-local learning-cycle index.
	Cycle int
	// At is the simulation time the feedback completed.
	At     float64
	State  State
	Action Action
	// Reward is rew_val (Eq. 8): deadline hits in the group.
	Reward float64
	// Error is err_tg (Eq. 9).
	Error float64
}

// ErrorFloor regularises Eq. 7: a null error would make l_val unbounded,
// letting one lucky perfect-fit group (often a singleton) dominate every
// remembered experience regardless of its reward. Flooring the error keeps
// the reward term — the paper's performance signal — commensurate with the
// energy-fit term. Typical err_tg values in this system are 0.3-1.5, so
// the floor binds only near-perfect fits.
const ErrorFloor = 0.25

// LVal computes Eq. 7, l_val = reward/error, with the error floored at
// ErrorFloor (infinite or NaN errors yield zero value).
func (e Experience) LVal() float64 {
	err := e.Error
	if math.IsInf(err, 1) || math.IsNaN(err) {
		return 0
	}
	if err < ErrorFloor {
		err = ErrorFloor
	}
	return e.Reward / err
}

// Shared is the shared learning memory: a bounded ring of experiences per
// agent, plus cheap aggregate counters.
type Shared struct {
	capacity int
	// rings holds one ring per agent that has recorded, in ascending
	// AgentID order. Every lookup and aggregate walks them in that order,
	// so no result depends on map iteration order.
	rings []ring
	total uint64
	// lookups/hits count Best/BestFor calls and how many found an
	// experience — the shared-memory hit rate probes report.
	lookups uint64
	hits    uint64
	// evictions counts experiences dropped by the per-agent bound, so
	// occupancy (total − evictions) and eviction pressure are visible in
	// run stats and /metrics without walking the rings.
	evictions uint64
}

// ring is one agent's retained experiences, oldest first, with each
// entry's l_val cached when it is recorded and the ring's maximum l_val,
// the bounds that let lookups skip entries and whole rings.
type ring struct {
	agent int
	exps  []Experience
	lvals []float64
	max   float64
}

// NewShared creates a memory with the paper's per-agent capacity.
func NewShared() *Shared { return NewSharedWithCapacity(CapacityPerAgent) }

// NewSharedWithCapacity allows tests and ablations to vary the bound.
// Capacity must be positive.
func NewSharedWithCapacity(capacity int) *Shared {
	if capacity <= 0 {
		panic(fmt.Sprintf("memory: capacity must be positive, got %d", capacity))
	}
	return &Shared{capacity: capacity}
}

// Capacity returns the per-agent bound.
func (m *Shared) Capacity() int { return m.capacity }

// find returns the index of agent id's ring, or where it would be
// inserted, and whether it exists.
func (m *Shared) find(id int) (int, bool) {
	i := sort.Search(len(m.rings), func(i int) bool { return m.rings[i].agent >= id })
	return i, i < len(m.rings) && m.rings[i].agent == id
}

// Record stores an experience, evicting the agent's oldest entry when the
// per-agent bound is reached.
func (m *Shared) Record(e Experience) {
	i, ok := m.find(e.AgentID)
	if !ok {
		m.rings = slices.Insert(m.rings, i, ring{
			agent: e.AgentID,
			exps:  make([]Experience, 0, m.capacity),
			lvals: make([]float64, 0, m.capacity),
		})
	}
	r := &m.rings[i]
	if len(r.exps) >= m.capacity {
		r.exps = append(r.exps[:0], r.exps[1:]...)
		r.lvals = append(r.lvals[:0], r.lvals[1:]...)
		m.evictions++
	}
	r.exps = append(r.exps, e)
	r.lvals = append(r.lvals, e.LVal())
	r.max = math.Inf(-1)
	for _, v := range r.lvals {
		if v > r.max {
			r.max = v
		}
	}
	m.total++
}

// TotalRecorded returns the lifetime count of recorded experiences
// (including evicted ones) — the basis for shared exploration decay: the
// more collective experience exists, the less the agents explore.
func (m *Shared) TotalRecorded() uint64 { return m.total }

// Len returns the number of currently retained experiences.
func (m *Shared) Len() int {
	n := 0
	for i := range m.rings {
		n += len(m.rings[i].exps)
	}
	return n
}

// Agents returns the number of agents that have recorded at least once.
func (m *Shared) Agents() int { return len(m.rings) }

// ForAgent returns the retained experiences of one agent, oldest first.
// The returned slice is the internal ring; callers must not mutate it.
func (m *Shared) ForAgent(id int) []Experience {
	if i, ok := m.find(id); ok {
		return m.rings[i].exps
	}
	return nil
}

// hit is one entry a scan kept: m.rings[ring].exps[pos], with its
// similarity to the query and its score.
type hit struct {
	ring, pos  int
	sim, score float64
}

// outranks reports whether entry pos of ring ri, scoring v, ranks above
// the kept hit h. Rank is score descending, then (AgentID, Cycle)
// ascending, then the older entry. A scan visits (ring, pos) in
// ascending order, so on an equal score a newcomer can only win inside
// h's own ring, by a lower Cycle.
func (m *Shared) outranks(v float64, ri, pos int, h hit) bool {
	if v != h.score {
		return v > h.score
	}
	exps := m.rings[ri].exps
	return h.ring == ri && exps[pos].Cycle < exps[h.pos].Cycle
}

// scan returns the cap(top) highest-ranked retained entries, best first,
// in top[:0]. An entry scores sim(s)·l_val when weighted and l_val
// otherwise; a NaN score never ranks.
//
// Similarity lies in [0, 1], so an entry's score is at most l_val, or 0
// when l_val is negative. Once top is full, a ring whose bound cannot
// beat the last kept score is skipped whole (it would lose every tie on
// AgentID), and an entry whose bound cannot outrank the last kept hit is
// skipped before its distance and exp are computed.
func (m *Shared) scan(s State, weighted bool, top []hit) []hit {
	k := cap(top)
	bound := func(lv float64) float64 {
		if weighted && lv < 0 {
			return 0
		}
		return lv
	}
	for ri := range m.rings {
		r := &m.rings[ri]
		if len(top) == k && bound(r.max) <= top[k-1].score {
			continue
		}
		for pos, lv := range r.lvals {
			if len(top) == k && !m.outranks(bound(lv), ri, pos, top[k-1]) {
				continue
			}
			h := hit{ring: ri, pos: pos, sim: 1, score: lv}
			if weighted {
				h.sim = r.exps[pos].State.Similarity(s)
				h.score = h.sim * lv
			}
			if math.IsNaN(h.score) {
				continue
			}
			j := len(top)
			if j < k {
				top = top[:j+1]
			} else if j--; !m.outranks(h.score, ri, pos, top[j]) {
				continue
			}
			for ; j > 0 && m.outranks(h.score, ri, pos, top[j-1]); j-- {
				top[j] = top[j-1]
			}
			top[j] = h
		}
	}
	return top
}

// lookup is Best (unweighted) or BestFor (weighted): the single
// top-ranked entry, counted as a lookup and, when found, a hit.
func (m *Shared) lookup(s State, weighted bool) (Experience, bool) {
	var buf [1]hit
	top := m.scan(s, weighted, buf[:0])
	m.lookups++
	if len(top) == 0 {
		return Experience{}, false
	}
	m.hits++
	return m.rings[top[0].ring].exps[top[0].pos], true
}

// Best returns the retained experience with the maximum learning value
// across all agents — the lookup the paper prescribes when an agent's
// reward regresses ("the agent immediately checks and learns the actions
// from the shared-learning memory — considering the action with the
// maximum learning value", §IV.C). Ties go to the lowest (AgentID,
// Cycle). ok is false when the memory is empty.
func (m *Shared) Best() (Experience, bool) { return m.lookup(State{}, false) }

// BestFor returns the experience maximising similarity-weighted learning
// value for the given state: sim(state)·l_val, ties going to the lowest
// (AgentID, Cycle). This lets agents prefer remembered actions taken
// under circumstances like the present one.
func (m *Shared) BestFor(s State) (Experience, bool) { return m.lookup(s, true) }

// Candidate is one retained experience scored against a query state —
// the decision-audit view of a BestFor scan. Score is the selection
// criterion sim(state)·l_val; Similarity and LVal are its factors.
type Candidate struct {
	AgentID    int     `json:"agent"`
	Cycle      int     `json:"cycle"`
	Action     Action  `json:"action"`
	Similarity float64 `json:"similarity"`
	LVal       float64 `json:"lval"`
	Score      float64 `json:"score"`
}

// TopFor returns the k highest-scoring candidates for the given state,
// best first, appended to out (which may be nil). It ranks exactly as
// BestFor does — score, then the lowest (AgentID, Cycle) — so its first
// candidate is always BestFor's winner. TopFor is an audit-only
// observation: it does not touch the lookup/hit counters.
func (m *Shared) TopFor(s State, k int, out []Candidate) []Candidate {
	k = min(k, m.Len())
	if k <= 0 {
		return out
	}
	for _, h := range m.scan(s, true, make([]hit, 0, k)) {
		r := &m.rings[h.ring]
		e := &r.exps[h.pos]
		out = append(out, Candidate{
			AgentID:    e.AgentID,
			Cycle:      e.Cycle,
			Action:     e.Action,
			Similarity: h.sim,
			LVal:       r.lvals[h.pos],
			Score:      h.score,
		})
	}
	return out
}

// BestAction is BestFor restricted to the action, with a default when
// memory is empty.
func (m *Shared) BestAction(s State, def Action) Action {
	if e, ok := m.BestFor(s); ok {
		return e.Action
	}
	return def
}

// MeanLVal returns the average learning value over retained experiences
// (0 when empty) — a convergence indicator used by reports.
func (m *Shared) MeanLVal() float64 {
	sum, n := 0.0, 0
	for i := range m.rings {
		for _, v := range m.rings[i].lvals {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// meanField averages one Experience field over retained experiences in
// agent order, skipping non-finite values (an unmeasurable turnaround
// estimate records an infinite error) so the mean stays representable in
// JSON.
func (m *Shared) meanField(get func(Experience) float64) float64 {
	sum, n := 0.0, 0
	for i := range m.rings {
		for _, e := range m.rings[i].exps {
			v := get(e)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanReward returns the average reward over retained experiences
// (0 when empty) — the learning-progress signal probes sample.
func (m *Shared) MeanReward() float64 {
	return m.meanField(func(e Experience) float64 { return e.Reward })
}

// MeanError returns the average turnaround-estimate error over retained
// experiences (0 when empty).
func (m *Shared) MeanError() float64 {
	return m.meanField(func(e Experience) float64 { return e.Error })
}

// Lookups returns the lifetime Best/BestFor call count.
func (m *Shared) Lookups() uint64 { return m.lookups }

// Hits returns how many Best/BestFor calls found an experience.
func (m *Shared) Hits() uint64 { return m.hits }

// Evictions returns the lifetime count of experiences dropped by the
// per-agent capacity bound.
func (m *Shared) Evictions() uint64 { return m.evictions }

// Occupancy returns the number of currently retained experiences,
// derived from the lifetime counters (every recorded experience is
// either retained or was evicted) so it costs O(1).
func (m *Shared) Occupancy() uint64 { return m.total - m.evictions }

// HitRate returns the fraction of Best/BestFor lookups that found an
// experience (0 before the first lookup).
func (m *Shared) HitRate() float64 {
	if m.lookups == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.lookups)
}
