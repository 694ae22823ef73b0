package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultKind classifies one injected worker fault.
type FaultKind int

const (
	// FaultNone leaves the worker alone.
	FaultNone FaultKind = iota
	// FaultPanicPreRead makes the worker panic before it reads its job —
	// the job unit never leaves the worker's input queue.
	FaultPanicPreRead
	// FaultPanic makes the worker panic right after reading its job.
	FaultPanic
	// FaultHang stalls the worker for the injector's HangFor after reading
	// its job; a hang longer than the master's deadline looks like a dead
	// worker, a shorter one like a slow node.
	FaultHang
	// FaultCorrupt makes the worker deliver a CorruptUnit instead of its
	// computed result.
	FaultCorrupt
)

// String names the fault kind as it appears in -faults specs and reports.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultPanicPreRead:
		return "panic-pre-read"
	case FaultPanic:
		return "panic"
	case FaultHang:
		return "hang"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// CorruptUnit is the unit a corrupt-faulted worker delivers instead of its
// result. A Policy.Validate hook rejects it, turning the corruption into a
// retriable failure.
type CorruptUnit struct{ Worker string }

// InjectedFault is the panic value of injected panics, so failure reports
// distinguish injected faults from genuine worker bugs.
type InjectedFault struct{ Kind FaultKind }

// Error formats the injected fault as a failure cause.
func (f InjectedFault) Error() string { return "core: injected fault: " + f.Kind.String() }

// FaultInjector deterministically assigns a fault to every attempt it is
// asked about: a core.Pool worker's, in worker-creation order, or a serve
// flight's, in the order the executors run them. A given seed (or plan)
// always produces the same fault sequence. Two modes:
//
//   - plan mode: an explicit FaultKind per creation index, clean afterwards
//     (deterministic protocol tests);
//   - probabilistic mode: seeded per-kind probabilities (CLI and stress
//     runs).
type FaultInjector struct {
	mu      sync.Mutex
	plan    []FaultKind
	rng     *rand.Rand
	pPre    float64
	pPanic  float64
	pHang   float64
	pCorr   float64
	hangFor time.Duration
	drawn   int
	counts  map[FaultKind]int
}

// DefaultHangFor is the stall duration of FaultHang when the spec does not
// set one.
const DefaultHangFor = 3 * time.Second

// NewFaultInjector returns a probabilistic injector: every worker attempt
// panics before its read with probability pPre, panics after it with pPanic,
// hangs for hangFor with pHang, or corrupts its result with pCorrupt
// (cumulative; the remainder is fault-free).
func NewFaultInjector(seed int64, pPre, pPanic, pHang, pCorrupt float64, hangFor time.Duration) *FaultInjector {
	if hangFor <= 0 {
		hangFor = DefaultHangFor
	}
	return &FaultInjector{
		rng:     rand.New(rand.NewSource(seed)),
		pPre:    pPre,
		pPanic:  pPanic,
		pHang:   pHang,
		pCorr:   pCorrupt,
		hangFor: hangFor,
		counts:  make(map[FaultKind]int),
	}
}

// PlanFaults returns a scripted injector: worker attempt i (in creation
// order) suffers kinds[i]; attempts beyond the plan are fault-free.
func PlanFaults(hangFor time.Duration, kinds ...FaultKind) *FaultInjector {
	if hangFor <= 0 {
		hangFor = DefaultHangFor
	}
	return &FaultInjector{
		plan:    append([]FaultKind(nil), kinds...),
		hangFor: hangFor,
		counts:  make(map[FaultKind]int),
	}
}

// ParseFaultSpec builds an injector from a comma-separated spec, e.g.
//
//	seed=42,panic=0.3,panicpre=0.1,hang=0.2,corrupt=0.1,hangfor=2s
//
// Unknown keys are errors, and so are a probability that is NaN or outside
// [0, 1] and a negative hangfor; omitted probabilities default to zero and
// an omitted (or zero) hangfor to DefaultHangFor.
func ParseFaultSpec(spec string) (*FaultInjector, error) {
	var (
		seed                       int64
		pPre, pPanic, pHang, pCorr float64
		hangFor                    time.Duration
	)
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("core: fault spec %q: missing '=' in %q", spec, kv)
		}
		var err error
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "seed":
			seed, err = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		case "panicpre":
			pPre, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		case "panic":
			pPanic, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		case "hang":
			pHang, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		case "corrupt":
			pCorr, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		case "hangfor":
			hangFor, err = time.ParseDuration(strings.TrimSpace(v))
		default:
			return nil, fmt.Errorf("core: fault spec %q: unknown key %q", spec, k)
		}
		if err != nil {
			return nil, fmt.Errorf("core: fault spec %q: %v", spec, err)
		}
	}
	for _, p := range []struct {
		key string
		v   float64
	}{{"panicpre", pPre}, {"panic", pPanic}, {"hang", pHang}, {"corrupt", pCorr}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails both
			return nil, fmt.Errorf("core: fault spec %q: %s=%v is not a probability in [0, 1]", spec, p.key, p.v)
		}
	}
	if hangFor < 0 {
		return nil, fmt.Errorf("core: fault spec %q: hangfor=%v is negative", spec, hangFor)
	}
	if pPre+pPanic+pHang+pCorr > 1 {
		return nil, fmt.Errorf("core: fault spec %q: probabilities sum to more than 1", spec)
	}
	return NewFaultInjector(seed, pPre, pPanic, pHang, pCorr, hangFor), nil
}

// Draw assigns the fault of the next attempt: a worker's, drawn by the
// coordinator in creation order, or a batched flight's, drawn by the serve
// executor that runs it. A nil injector draws FaultNone and counts nothing.
func (fi *FaultInjector) Draw() FaultKind {
	if fi == nil {
		return FaultNone
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	k := FaultNone
	if fi.drawn < len(fi.plan) {
		k = fi.plan[fi.drawn]
	} else if fi.rng != nil {
		switch r := fi.rng.Float64(); {
		case r < fi.pPre:
			k = FaultPanicPreRead
		case r < fi.pPre+fi.pPanic:
			k = FaultPanic
		case r < fi.pPre+fi.pPanic+fi.pHang:
			k = FaultHang
		case r < fi.pPre+fi.pPanic+fi.pHang+fi.pCorr:
			k = FaultCorrupt
		}
	}
	fi.drawn++
	fi.counts[k]++
	return k
}

// HangFor returns the stall duration of injected hangs.
func (fi *FaultInjector) HangFor() time.Duration { return fi.hangFor }

// Drawn returns how many worker attempts have been assigned a fault (or
// FaultNone) so far.
func (fi *FaultInjector) Drawn() int {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.drawn
}

// Counts returns a copy of the per-kind injection counters.
func (fi *FaultInjector) Counts() map[FaultKind]int {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	out := make(map[FaultKind]int, len(fi.counts))
	for k, v := range fi.counts {
		out[k] = v
	}
	return out
}

// Injected returns how many attempts were assigned a real fault.
func (fi *FaultInjector) Injected() int {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	n := 0
	for k, v := range fi.counts {
		if k != FaultNone {
			n += v
		}
	}
	return n
}
