// Package trace generates CoIC workloads: populations of mobile users
// moving between locations, issuing recognition/render/pano requests whose
// redundancy structure follows the paper's motivation — users in the same
// place at the same time tend to ask for the same computations. Zipf
// object popularity, Poisson arrivals and a cell-grid locality model
// together control how much cross-user redundancy an experiment sees.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
	"github.com/edge-immersion/coic/internal/xrand"
)

// Event is one IC request in a workload trace.
type Event struct {
	// At is the offset from trace start.
	At time.Duration `json:"at_ns"`
	// User identifies the requesting client.
	User int `json:"user"`
	// Cell is the user's location when the request was issued.
	Cell int `json:"cell"`
	// Task is the IC task kind.
	Task wire.Task `json:"task"`
	// Object identifies what is being recognised / rendered / watched:
	// class+instance for recognition, model index for render, (video,
	// frame) packed for pano.
	Object int `json:"object"`
	// Frame is the pano frame index (pano tasks only).
	Frame int `json:"frame,omitempty"`
	// ViewSeed drives per-request viewpoint variation: two users seeing
	// the same Object get different seeds, hence different camera angles
	// over the same content.
	ViewSeed uint64 `json:"view_seed"`
	// QoS is the request's service class (Config.InteractiveShare draws
	// it); zero is best-effort, and omitted when an event is marshalled
	// as JSON.
	QoS wire.QoS `json:"qos,omitempty"`
}

// Config parameterises workload generation.
type Config struct {
	// Users is the population size.
	Users int
	// Cells is the number of distinct locations.
	Cells int
	// Duration is the trace length.
	Duration time.Duration
	// RatePerUser is the mean requests/second each user issues.
	RatePerUser float64
	// Objects is the universe of distinct objects per task kind.
	Objects int
	// ZipfAlpha shapes object popularity (0 = uniform; ~1 = web-like).
	ZipfAlpha float64
	// Locality is the probability a request targets the user's cell hot
	// set rather than the global universe. Higher locality = more
	// cross-user redundancy = more CoIC hits.
	Locality float64
	// HotSetSize is how many objects each cell's hot set holds.
	HotSetSize int
	// MoveProb is the per-request probability that the user relocates to
	// a random cell first (cheap stand-in for dwell-time mobility).
	MoveProb float64
	// TaskMix weights recognition, render and pano tasks; they need not
	// sum to 1 (normalised internally). Zero-value mix means
	// recognition-only.
	TaskMix TaskMix
	// InteractiveShare is the probability an event is tagged
	// QoSInteractive (0 = all best-effort). The draw happens only when
	// positive, so zero-share traces replay bit-identically to pre-QoS
	// ones.
	InteractiveShare float64
	// Seed drives all sampling.
	Seed uint64
}

// TaskMix weights the three IC task kinds.
type TaskMix struct {
	Recognize float64
	Render    float64
	Pano      float64
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("trace: Users = %d", c.Users)
	case c.Cells <= 0:
		return fmt.Errorf("trace: Cells = %d", c.Cells)
	case c.Duration <= 0:
		return fmt.Errorf("trace: Duration = %v", c.Duration)
	case c.RatePerUser <= 0:
		return fmt.Errorf("trace: RatePerUser = %v", c.RatePerUser)
	case c.Objects <= 0:
		return fmt.Errorf("trace: Objects = %d", c.Objects)
	case c.ZipfAlpha < 0:
		return fmt.Errorf("trace: ZipfAlpha = %v", c.ZipfAlpha)
	case c.Locality < 0 || c.Locality > 1:
		return fmt.Errorf("trace: Locality = %v", c.Locality)
	case c.MoveProb < 0 || c.MoveProb > 1:
		return fmt.Errorf("trace: MoveProb = %v", c.MoveProb)
	case c.InteractiveShare < 0 || c.InteractiveShare > 1:
		return fmt.Errorf("trace: InteractiveShare = %v", c.InteractiveShare)
	}
	return nil
}

// Zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^alpha, deterministically.
type Zipf struct {
	cum []float64
	rng *xrand.RNG
}

// NewZipf precomputes the cumulative distribution. alpha = 0 degenerates
// to uniform. Panics on n <= 0 (constructor misuse).
func NewZipf(n int, alpha float64, rng *xrand.RNG) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("trace: Zipf over %d items", n))
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), alpha)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &Zipf{cum: cum, rng: rng}
}

// Sample draws one rank.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// Generate produces a time-sorted event trace.
func Generate(cfg Config) ([]Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.HotSetSize <= 0 {
		cfg.HotSetSize = 8
	}
	mix := cfg.TaskMix
	if mix.Recognize == 0 && mix.Render == 0 && mix.Pano == 0 {
		mix.Recognize = 1
	}
	totalMix := mix.Recognize + mix.Render + mix.Pano

	rng := xrand.New(cfg.Seed)
	popularity := NewZipf(cfg.Objects, cfg.ZipfAlpha, rng.Fork("zipf"))
	hotRank := NewZipf(cfg.HotSetSize, cfg.ZipfAlpha, rng.Fork("hot"))

	// Each cell's hot set: a deterministic slice of the object universe.
	hotSets := make([][]int, cfg.Cells)
	for c := range hotSets {
		cellRng := rng.Fork(fmt.Sprintf("cell%d", c))
		set := make([]int, cfg.HotSetSize)
		for i := range set {
			set[i] = cellRng.Intn(cfg.Objects)
		}
		hotSets[c] = set
	}

	var events []Event
	for u := 0; u < cfg.Users; u++ {
		userRng := rng.Fork(fmt.Sprintf("user%d", u))
		cell := userRng.Intn(cfg.Cells)
		t := time.Duration(0)
		for {
			gap := time.Duration(userRng.ExpFloat64() / cfg.RatePerUser * float64(time.Second))
			t += gap
			if t >= cfg.Duration {
				break
			}
			if userRng.Float64() < cfg.MoveProb {
				cell = userRng.Intn(cfg.Cells)
			}
			var object int
			if userRng.Float64() < cfg.Locality {
				object = hotSets[cell][hotRank.Sample()]
			} else {
				object = popularity.Sample()
			}
			ev := Event{
				At: t, User: u, Cell: cell,
				Object:   object,
				ViewSeed: userRng.Uint64(),
			}
			switch pickTask(userRng.Float64()*totalMix, mix) {
			case wire.TaskRecognize:
				ev.Task = wire.TaskRecognize
			case wire.TaskRender:
				ev.Task = wire.TaskRender
			case wire.TaskPano:
				ev.Task = wire.TaskPano
				// Users watching the same video at the same time request
				// the same frames: frame index follows trace time.
				ev.Frame = int(t / (33 * time.Millisecond)) // 30 fps
			}
			if cfg.InteractiveShare > 0 && userRng.Float64() < cfg.InteractiveShare {
				ev.QoS = wire.QoSInteractive
			}
			events = append(events, ev)
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].User < events[j].User
	})
	return events, nil
}

func pickTask(v float64, mix TaskMix) wire.Task {
	if v < mix.Recognize {
		return wire.TaskRecognize
	}
	if v < mix.Recognize+mix.Render {
		return wire.TaskRender
	}
	return wire.TaskPano
}

// Stats summarises a trace.
type Stats struct {
	Events       int
	Users        int
	UniqueObjs   int
	PerTask      map[string]int
	Duration     time.Duration
	RedundantPct float64 // share of events whose (task, object) was seen before
}

// Analyze computes trace statistics, including the redundancy share that
// upper-bounds any cache's hit ratio.
func Analyze(events []Event) Stats {
	st := Stats{PerTask: map[string]int{}}
	users := map[int]struct{}{}
	objs := map[int]struct{}{}
	seen := map[[3]int]struct{}{}
	redundant := 0
	for _, e := range events {
		st.Events++
		users[e.User] = struct{}{}
		objs[e.Object] = struct{}{}
		st.PerTask[e.Task.String()]++
		if e.At > st.Duration {
			st.Duration = e.At
		}
		key := [3]int{int(e.Task), e.Object, e.Frame}
		if _, ok := seen[key]; ok {
			redundant++
		} else {
			seen[key] = struct{}{}
		}
	}
	st.Users = len(users)
	st.UniqueObjs = len(objs)
	if st.Events > 0 {
		st.RedundantPct = float64(redundant) / float64(st.Events) * 100
	}
	return st
}
