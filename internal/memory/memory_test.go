package memory

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"rlsched/internal/grouping"
)

func exp(agent, cycle int, reward, errv float64) Experience {
	return Experience{
		AgentID: agent, Cycle: cycle, Reward: reward, Error: errv,
		Action: Action{Opnum: cycle%5 + 1, Mode: grouping.ModeMixed},
	}
}

func TestCapacityEviction(t *testing.T) {
	m := NewShared()
	for i := 0; i < 40; i++ {
		m.Record(exp(1, i, float64(i), 1))
	}
	ring := m.ForAgent(1)
	if len(ring) != CapacityPerAgent {
		t.Fatalf("retained %d experiences, want %d", len(ring), CapacityPerAgent)
	}
	if ring[0].Cycle != 40-CapacityPerAgent {
		t.Fatalf("oldest retained cycle %d, want %d", ring[0].Cycle, 40-CapacityPerAgent)
	}
	if ring[len(ring)-1].Cycle != 39 {
		t.Fatalf("newest retained cycle %d, want 39", ring[len(ring)-1].Cycle)
	}
	if m.TotalRecorded() != 40 {
		t.Fatalf("TotalRecorded %d, want 40", m.TotalRecorded())
	}
	if m.Len() != CapacityPerAgent {
		t.Fatalf("Len %d, want %d", m.Len(), CapacityPerAgent)
	}
}

func TestPerAgentIsolation(t *testing.T) {
	m := NewShared()
	m.Record(exp(1, 0, 5, 1))
	m.Record(exp(2, 0, 7, 1))
	if len(m.ForAgent(1)) != 1 || len(m.ForAgent(2)) != 1 {
		t.Fatal("agents should have one experience each")
	}
	if m.Agents() != 2 {
		t.Fatalf("Agents = %d, want 2", m.Agents())
	}
}

func TestBestAcrossAgents(t *testing.T) {
	m := NewShared()
	m.Record(exp(1, 0, 5, 1))  // l_val 5
	m.Record(exp(2, 0, 9, 1))  // l_val 9 <- best
	m.Record(exp(3, 0, 20, 4)) // l_val 5
	best, ok := m.Best()
	if !ok || best.AgentID != 2 {
		t.Fatalf("Best = agent %d (ok=%v), want agent 2", best.AgentID, ok)
	}
}

func TestBestEmpty(t *testing.T) {
	m := NewShared()
	if _, ok := m.Best(); ok {
		t.Fatal("empty memory must report no best")
	}
	if _, ok := m.BestFor(State{}); ok {
		t.Fatal("empty memory must report no BestFor")
	}
}

func TestLValEq7(t *testing.T) {
	e := Experience{Reward: 6, Error: 2}
	if got := e.LVal(); got != 3 {
		t.Fatalf("LVal = %g, want 3", got)
	}
}

func TestLValNullErrorFloored(t *testing.T) {
	perfect := Experience{Reward: 4, Error: 0}
	imperfect := Experience{Reward: 4, Error: 0.5}
	if perfect.LVal() <= imperfect.LVal() {
		t.Fatal("null error must dominate any imperfect fit at equal reward")
	}
	if math.IsInf(perfect.LVal(), 1) {
		t.Fatal("LVal must stay finite")
	}
}

func TestLValInfiniteErrorIsWorthless(t *testing.T) {
	e := Experience{Reward: 10, Error: math.Inf(1)}
	if e.LVal() != 0 {
		t.Fatalf("infinite error should zero the learning value, got %g", e.LVal())
	}
}

func TestBestForPrefersSimilarStates(t *testing.T) {
	m := NewShared()
	near := exp(1, 0, 5, 1)
	near.State = State{Load: 10, FreeSlots: 2, MeanPower: 60, SiteLoad: 30}
	far := exp(2, 0, 6, 1) // slightly higher l_val but dissimilar state
	far.State = State{Load: 1000, FreeSlots: 0, MeanPower: 95, SiteLoad: 5000}
	m.Record(near)
	m.Record(far)
	query := State{Load: 11, FreeSlots: 2, MeanPower: 61, SiteLoad: 31}
	best, ok := m.BestFor(query)
	if !ok || best.AgentID != 1 {
		t.Fatalf("BestFor chose agent %d, want the similar-state agent 1", best.AgentID)
	}
}

func TestBestActionDefault(t *testing.T) {
	m := NewShared()
	def := Action{Opnum: 3, Mode: grouping.ModeIdentical}
	if got := m.BestAction(State{}, def); got != def {
		t.Fatalf("BestAction on empty memory = %+v, want default", got)
	}
	rec := exp(1, 0, 9, 1)
	rec.Action = Action{Opnum: 5, Mode: grouping.ModeMixed}
	m.Record(rec)
	if got := m.BestAction(State{}, def); got != rec.Action {
		t.Fatalf("BestAction = %+v, want %+v", got, rec.Action)
	}
}

func TestSimilarityProperties(t *testing.T) {
	a := State{Load: 5, FreeSlots: 3, MeanPower: 70, SiteLoad: 20}
	if s := a.Similarity(a); math.Abs(s-1) > 1e-12 {
		t.Fatalf("self-similarity %g, want 1", s)
	}
	b := State{Load: 500, FreeSlots: 0, MeanPower: 95, SiteLoad: 2000}
	if a.Similarity(b) >= a.Similarity(a) {
		t.Fatal("dissimilar state must score below identical state")
	}
	if a.Similarity(b) <= 0 {
		t.Fatal("similarity must stay positive")
	}
}

func TestSimilaritySymmetry(t *testing.T) {
	a := State{Load: 5, FreeSlots: 3, MeanPower: 70, SiteLoad: 20}
	b := State{Load: 8, FreeSlots: 1, MeanPower: 50, SiteLoad: 90}
	if math.Abs(a.Similarity(b)-b.Similarity(a)) > 1e-12 {
		t.Fatal("similarity not symmetric")
	}
}

func TestMeanLVal(t *testing.T) {
	m := NewShared()
	if m.MeanLVal() != 0 {
		t.Fatal("empty memory mean l_val should be 0")
	}
	m.Record(exp(1, 0, 4, 1))
	m.Record(exp(1, 1, 8, 1))
	if got := m.MeanLVal(); got != 6 {
		t.Fatalf("MeanLVal = %g, want 6", got)
	}
}

func TestCustomCapacity(t *testing.T) {
	m := NewSharedWithCapacity(2)
	for i := 0; i < 5; i++ {
		m.Record(exp(1, i, 1, 1))
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive capacity")
		}
	}()
	NewSharedWithCapacity(0)
}

func TestStateVectorLength(t *testing.T) {
	v := State{Load: 1, FreeSlots: 2, MeanPower: 3, SiteLoad: 4}.Vector()
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vector = %v", v)
		}
	}
}

// Property: the per-agent bound holds for any recording sequence, and the
// retained entries are always the most recent ones in order.
func TestQuickBoundAndRecency(t *testing.T) {
	f := func(agents []uint8) bool {
		m := NewShared()
		counts := map[int]int{}
		for _, a := range agents {
			id := int(a % 4)
			m.Record(exp(id, counts[id], 1, 1))
			counts[id]++
		}
		for id, total := range counts {
			ring := m.ForAgent(id)
			if len(ring) > CapacityPerAgent {
				return false
			}
			wantFirst := total - len(ring)
			for k, e := range ring {
				if e.Cycle != wantFirst+k {
					return false
				}
			}
		}
		return m.TotalRecorded() == uint64(len(agents))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Best always returns the maximum l_val over retained entries.
func TestQuickBestIsMax(t *testing.T) {
	f := func(rewards []uint8) bool {
		if len(rewards) == 0 {
			return true
		}
		m := NewShared()
		maxV := math.Inf(-1)
		for i, r := range rewards {
			e := exp(i%3, i, float64(r), 1)
			m.Record(e)
		}
		// Recompute max over what is retained.
		for id := 0; id < 3; id++ {
			for _, e := range m.ForAgent(id) {
				if e.LVal() > maxV {
					maxV = e.LVal()
				}
			}
		}
		best, ok := m.Best()
		return ok && best.LVal() == maxV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecordAndBest(b *testing.B) {
	m := NewShared()
	for i := 0; i < b.N; i++ {
		m.Record(exp(i%8, i, float64(i%17), float64(i%5)+0.1))
		if i%10 == 0 {
			m.Best()
		}
	}
}

func TestLookupCounters(t *testing.T) {
	m := NewShared()
	if m.Lookups() != 0 || m.HitRate() != 0 {
		t.Fatal("fresh memory should report zero lookups and hit rate")
	}
	m.Best()           // miss: empty
	m.BestFor(State{}) // miss: empty
	m.Record(exp(1, 0, 5, 1))
	m.Best()           // hit
	m.BestFor(State{}) // hit
	if m.Lookups() != 4 {
		t.Fatalf("Lookups = %d, want 4", m.Lookups())
	}
	if got := m.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %g, want 0.5", got)
	}
}

func TestMeanRewardAndError(t *testing.T) {
	m := NewShared()
	if m.MeanReward() != 0 || m.MeanError() != 0 {
		t.Fatal("empty memory means should be 0")
	}
	m.Record(exp(1, 0, 2, 1))
	m.Record(exp(1, 1, 4, 3))
	if got := m.MeanReward(); got != 3 {
		t.Fatalf("MeanReward = %g, want 3", got)
	}
	if got := m.MeanError(); got != 2 {
		t.Fatalf("MeanError = %g, want 2", got)
	}
}

// TestMeanSkipsNonFinite pins the probe-facing contract: a null-error
// experience stores Error = +Inf (see LVal), and the mean must stay
// finite — and JSON-marshalable — regardless.
func TestMeanSkipsNonFinite(t *testing.T) {
	m := NewShared()
	m.Record(exp(1, 0, 2, math.Inf(1)))
	m.Record(exp(1, 1, 4, 6))
	if got := m.MeanError(); got != 6 {
		t.Fatalf("MeanError = %g, want 6 (the +Inf experience skipped)", got)
	}
	m2 := NewShared()
	m2.Record(exp(1, 0, 1, math.Inf(1)))
	if got := m2.MeanError(); got != 0 || math.IsInf(got, 0) {
		t.Fatalf("all-Inf MeanError = %g, want finite 0", got)
	}
}

// scored is one retained experience with the scan's factors, as the
// brute-force oracle ranks it.
type scored struct {
	e              Experience
	sim, lv, score float64
}

// oracle ranks every retained experience of the given agents without
// pruning: score descending (l_val alone unless weighted, sim·l_val
// otherwise), then (AgentID, Cycle) ascending, then ring order (oldest
// first). NaN scores never rank.
func oracle(m *Shared, agents []int, s State, weighted bool) []scored {
	ids := slices.Clone(agents)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	var all []scored
	for _, id := range ids {
		for _, e := range m.ForAgent(id) {
			c := scored{e: e, sim: 1, lv: e.LVal()}
			c.score = c.lv
			if weighted {
				c.sim = e.State.Similarity(s)
				c.score = c.sim * c.lv
			}
			if !math.IsNaN(c.score) {
				all = append(all, c)
			}
		}
	}
	slices.SortStableFunc(all, func(a, b scored) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a.e.AgentID, b.e.AgentID); c != 0 {
			return c
		}
		return cmp.Compare(a.e.Cycle, b.e.Cycle)
	})
	return all
}

// checkAgainstOracle compares Best, BestFor and TopFor on query q with the
// oracle. Experiences are identified by At, which callers keep unique.
func checkAgainstOracle(t *testing.T, m *Shared, agents []int, q State, k int) {
	t.Helper()
	same := func(got Experience, gotOK bool, want []scored) bool {
		if len(want) == 0 {
			return !gotOK
		}
		return gotOK && got.At == want[0].e.At
	}
	byLVal := oracle(m, agents, q, false)
	if got, ok := m.Best(); !same(got, ok, byLVal) {
		t.Fatalf("Best = %+v (ok=%v), oracle %+v", got, ok, byLVal[:min(1, len(byLVal))])
	}
	bySim := oracle(m, agents, q, true)
	best, ok := m.BestFor(q)
	if !same(best, ok, bySim) {
		t.Fatalf("BestFor(%+v) = %+v (ok=%v), oracle %+v", q, best, ok, bySim[:min(1, len(bySim))])
	}
	top := m.TopFor(q, k, nil)
	if want := min(k, len(bySim)); len(top) != want {
		t.Fatalf("TopFor(k=%d) returned %d candidates, want %d", k, len(top), want)
	}
	for i, c := range top {
		w := bySim[i]
		want := Candidate{
			AgentID: w.e.AgentID, Cycle: w.e.Cycle, Action: w.e.Action,
			Similarity: w.sim, LVal: w.lv, Score: w.score,
		}
		if c != want {
			t.Fatalf("TopFor[%d] = %+v, oracle %+v", i, c, want)
		}
	}
	if one := m.TopFor(q, 1, nil); ok != (len(one) == 1) ||
		ok && (one[0].AgentID != best.AgentID || one[0].Cycle != best.Cycle ||
			one[0].Action != best.Action || one[0].LVal != best.LVal()) {
		t.Fatalf("TopFor(q, 1) = %+v, BestFor = %+v (ok=%v)", one, best, ok)
	}
}

// TestPrunedLookupMatchesBruteForce pins the pruned Best/BestFor against
// the exhaustive oracle on continuous data, including negative and zero
// learning values, across many agents and evictions.
func TestPrunedLookupMatchesBruteForce(t *testing.T) {
	m := NewShared()
	r := rand.New(rand.NewPCG(12345, 0))
	var agents []int
	for i := 0; i < 2000; i++ {
		e := Experience{
			AgentID: r.IntN(60),
			Cycle:   i,
			At:      float64(i),
			Reward:  r.Float64()*4 - 1,
			Error:   r.Float64()*2 + 0.1,
			State: State{
				Load: r.Float64() * 100, FreeSlots: r.Float64() * 10,
				MeanPower: r.Float64() * 300, SiteLoad: r.Float64() * 500,
			},
			Action: Action{Opnum: r.IntN(5) + 1, Mode: grouping.ModeMixed},
		}
		m.Record(e)
		agents = append(agents, e.AgentID)
		if i%50 != 0 {
			continue
		}
		q := State{Load: r.Float64() * 100, FreeSlots: r.Float64() * 10, MeanPower: r.Float64() * 300, SiteLoad: r.Float64() * 500}
		checkAgainstOracle(t, m, agents, q, 5)
	}
}

// TestLookupMatchesOracleShuffled is the property gate on the scan core:
// under shuffled insertion order (so an agent's cycles reach its ring out
// of order), random capacities, coarse values that force exact score
// ties, and negative, zero, floored and infinite errors, Best, BestFor
// and TopFor agree exactly with the unpruned oracle.
func TestLookupMatchesOracleShuffled(t *testing.T) {
	rewards := []float64{-2, -1, 0, 0, 1, 1, 2, 3.5}
	errs := []float64{-1, 0, 0.1, 0.25, 0.5, 1, 2, math.Inf(1)}
	states := []State{
		{},
		{Load: 10, FreeSlots: 2, MeanPower: 60, SiteLoad: 30},
		{Load: 12, FreeSlots: 1, MeanPower: 60, SiteLoad: 40},
		{Load: 500, MeanPower: 95, SiteLoad: 2000},
	}
	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 300; trial++ {
		m := NewSharedWithCapacity(1 + r.IntN(6))
		nAgents := 1 + r.IntN(8)
		var exps []Experience
		for a := 0; a < nAgents; a++ {
			id := r.IntN(20) - 5 // sparse, possibly negative IDs
			for c := 0; c < r.IntN(10); c++ {
				exps = append(exps, Experience{
					AgentID: id,
					Cycle:   c,
					Reward:  rewards[r.IntN(len(rewards))],
					Error:   errs[r.IntN(len(errs))],
					State:   states[r.IntN(len(states))],
					Action:  Action{Opnum: 1 + r.IntN(6), Mode: grouping.Mode(r.IntN(2))},
				})
			}
		}
		r.Shuffle(len(exps), func(i, j int) { exps[i], exps[j] = exps[j], exps[i] })
		var agents []int
		for i, e := range exps {
			e.At = float64(i)
			m.Record(e)
			agents = append(agents, e.AgentID)
		}
		for _, q := range states {
			checkAgainstOracle(t, m, agents, q, 1+r.IntN(12))
		}
	}
}

// TestLookupTieBreak pins the explicit tie-break: equal scores go to the
// lowest (AgentID, Cycle), whatever the insertion order.
func TestLookupTieBreak(t *testing.T) {
	m := NewShared()
	// Every entry floors to l_val 12 and shares one state; agent 3's
	// lower cycle is recorded after its higher one.
	for _, ac := range [][2]int{{7, 1}, {3, 10}, {5, 0}, {3, 2}, {9, 0}} {
		m.Record(exp(ac[0], ac[1], 3, 0.1))
	}
	e, ok := m.Best()
	if !ok || e.AgentID != 3 || e.Cycle != 2 {
		t.Fatalf("Best under ties = agent %d cycle %d (ok=%v), want agent 3 cycle 2", e.AgentID, e.Cycle, ok)
	}
	e, ok = m.BestFor(State{Load: 1})
	if !ok || e.AgentID != 3 || e.Cycle != 2 {
		t.Fatalf("BestFor under ties = agent %d cycle %d (ok=%v), want agent 3 cycle 2", e.AgentID, e.Cycle, ok)
	}

	// Eight agents, each holding one identical zero-l_val experience with
	// its own action: every repeated lookup must name agent 0's action.
	m = NewShared()
	for a := 7; a >= 0; a-- {
		m.Record(Experience{AgentID: a, Action: Action{Opnum: a + 1}})
	}
	q := State{Load: 4, FreeSlots: 1}
	for i := 0; i < 200; i++ {
		if e, ok := m.BestFor(q); !ok || e.Action.Opnum != 1 {
			t.Fatalf("call %d: BestFor = %+v (ok=%v), want agent 0's action", i, e, ok)
		}
	}
}

// TestMeansIndependentOfInsertionOrder: the means feed the rl.reward and
// rl.error probe series, so they must sum in one fixed order — the same
// 40-agent × 15-cycle memory built in any agent order yields one bit
// pattern per mean.
func TestMeansIndependentOfInsertionOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	var exps []Experience
	for a := 0; a < 40; a++ {
		for c := 0; c < CapacityPerAgent; c++ {
			exps = append(exps, Experience{AgentID: a, Cycle: c, Reward: r.Float64() * 7, Error: r.Float64()*2 + 0.01})
		}
	}
	order := make([]int, 40)
	for i := range order {
		order[i] = i
	}
	type bits struct{ lval, reward, errv uint64 }
	seen := map[bits]bool{}
	for rep := 0; rep < 200; rep++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		m := NewShared()
		for _, a := range order {
			for _, e := range exps[a*CapacityPerAgent : (a+1)*CapacityPerAgent] {
				m.Record(e)
			}
		}
		seen[bits{math.Float64bits(m.MeanLVal()), math.Float64bits(m.MeanReward()), math.Float64bits(m.MeanError())}] = true
	}
	if len(seen) != 1 {
		t.Fatalf("means took %d distinct bit patterns over 200 builds, want 1", len(seen))
	}
}

// paperShapedMemory fills a memory shaped like the paper runs: 16 agents, each
// with a full ring of CapacityPerAgent experiences over varied states and
// learning values. It returns the memory and a few query states.
func paperShapedMemory() (*Shared, []State) {
	r := rand.New(rand.NewPCG(1, 2))
	state := func() State {
		return State{Load: r.Float64() * 40, FreeSlots: float64(r.IntN(8)), MeanPower: 40 + r.Float64()*60, SiteLoad: r.Float64() * 200}
	}
	m := NewShared()
	for c := 0; c < 2*CapacityPerAgent; c++ {
		for a := 0; a < 16; a++ {
			m.Record(Experience{
				AgentID: a, Cycle: c, State: state(),
				Reward: float64(r.IntN(6)), Error: 0.3 + r.Float64()*1.2,
				Action: Action{Opnum: 1 + r.IntN(8)},
			})
		}
	}
	qs := make([]State, 8)
	for i := range qs {
		qs[i] = state()
	}
	return m, qs
}

// TestLookupAllocs gates the hot paths at zero allocations: Best, BestFor
// and Record once every ring is full.
func TestLookupAllocs(t *testing.T) {
	m, qs := paperShapedMemory()
	i := 0
	for name, f := range map[string]func(){
		"Best":    func() { m.Best() },
		"BestFor": func() { m.BestFor(qs[i%len(qs)]); i++ },
		"Record":  func() { m.Record(Experience{AgentID: i % 16, Cycle: 100 + i, Reward: 1, Error: 1}); i++ },
	} {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func BenchmarkBestFor(b *testing.B) {
	m, qs := paperShapedMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkExp, _ = m.BestFor(qs[i%len(qs)])
	}
}

var sinkExp Experience

// FuzzBestForMatchesBruteForce drives the scan core with arbitrary
// recording sequences. Each 4-byte group records one experience: agent,
// cycle, reward, error and state all come from small tables, so ties,
// duplicate cycles, evictions and non-finite values are common. The first
// byte picks the capacity; the last group picks the query state.
func FuzzBestForMatchesBruteForce(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2})
	f.Add([]byte{0, 5, 3, 5, 1, 4, 3, 5, 1, 3, 3, 5, 2, 0, 0, 0, 0})
	f.Add([]byte{14, 1, 7, 6, 3, 2, 6, 2, 2, 1, 4, 7, 0, 3, 0, 2, 1, 0, 9, 4, 3, 2, 2, 2, 2})
	f.Add([]byte{1, 0, 2, 9, 4, 0, 1, 9, 4, 1, 2, 8, 5, 0, 3, 3, 3, 7, 7, 7, 7, 3})
	f.Add([]byte("\x02shared learning memory lookups stay exact"))
	rewards := []float64{-2, 0, 0, 1, 2.5, math.Inf(1), math.Inf(-1), math.NaN()}
	errs := []float64{-1, 0, 0.1, 0.25, 1, 2, math.Inf(1), math.NaN(), math.Inf(-1), 0.5}
	states := []State{
		{},
		{Load: 3, FreeSlots: 1, MeanPower: 50, SiteLoad: 9},
		{Load: 3, FreeSlots: 1, MeanPower: 50, SiteLoad: 9.5},
		{Load: -20, FreeSlots: 4, MeanPower: 1e6, SiteLoad: 1e-9},
		{Load: math.Inf(1)},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := NewSharedWithCapacity(1 + int(data[0])%5)
		data = data[1:]
		var agents []int
		q := State{}
		for i := 0; len(data) > 0; i++ {
			g := data[:min(4, len(data))]
			data = data[len(g):]
			if len(g) < 4 {
				q = states[int(g[0])%len(states)]
				break
			}
			e := Experience{
				AgentID: int(g[0]%6) - 1,
				Cycle:   int(g[0] / 6 % 4),
				At:      float64(i),
				Reward:  rewards[int(g[1])%len(rewards)],
				Error:   errs[int(g[2])%len(errs)],
				State:   states[int(g[3])%len(states)],
				Action:  Action{Opnum: 1 + int(g[3]/8)%7},
			}
			m.Record(e)
			agents = append(agents, e.AgentID)
		}
		checkAgainstOracle(t, m, agents, q, 4)
	})
}
