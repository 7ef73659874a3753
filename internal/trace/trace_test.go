package trace

import (
	"math"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
	"github.com/edge-immersion/coic/internal/xrand"
)

func baseConfig() Config {
	return Config{
		Users: 10, Cells: 4, Duration: 30 * time.Second,
		RatePerUser: 2, Objects: 100, ZipfAlpha: 0.9,
		Locality: 0.7, HotSetSize: 8, MoveProb: 0.05,
		TaskMix: TaskMix{Recognize: 0.5, Render: 0.3, Pano: 0.2},
		Seed:    42,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(baseConfig())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestGenerateSortedAndBounded(t *testing.T) {
	events, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	cfg := baseConfig()
	for i, e := range events {
		if i > 0 && e.At < events[i-1].At {
			t.Fatal("events not sorted")
		}
		if e.At >= cfg.Duration {
			t.Fatalf("event at %v beyond duration", e.At)
		}
		if e.User < 0 || e.User >= cfg.Users || e.Cell < 0 || e.Cell >= cfg.Cells {
			t.Fatalf("event out of range: %+v", e)
		}
		if e.Object < 0 || e.Object >= cfg.Objects {
			t.Fatalf("object out of range: %+v", e)
		}
	}
}

func TestGenerateRateRoughlyHonoured(t *testing.T) {
	cfg := baseConfig()
	cfg.Users, cfg.Duration, cfg.RatePerUser = 20, time.Minute, 3
	events, _ := Generate(cfg)
	expected := float64(cfg.Users) * cfg.Duration.Seconds() * cfg.RatePerUser
	got := float64(len(events))
	if math.Abs(got-expected)/expected > 0.15 {
		t.Fatalf("generated %v events, expected ~%v", got, expected)
	}
}

func TestTaskMixRespected(t *testing.T) {
	cfg := baseConfig()
	cfg.Users, cfg.Duration = 30, time.Minute
	cfg.TaskMix = TaskMix{Recognize: 1, Render: 1} // no pano
	events, _ := Generate(cfg)
	st := Analyze(events)
	if st.PerTask["pano"] != 0 {
		t.Fatalf("pano events generated despite zero weight: %d", st.PerTask["pano"])
	}
	rec, ren := float64(st.PerTask["recognize"]), float64(st.PerTask["render"])
	if rec == 0 || ren == 0 {
		t.Fatal("missing task kind")
	}
	if ratio := rec / ren; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("50/50 mix skewed: %v", ratio)
	}
}

func TestLocalityIncreasesRedundancy(t *testing.T) {
	lo := baseConfig()
	lo.Locality, lo.TaskMix = 0, TaskMix{Recognize: 1}
	lo.Users, lo.Duration = 20, time.Minute
	hi := lo
	hi.Locality = 0.95

	evLo, _ := Generate(lo)
	evHi, _ := Generate(hi)
	rLo := Analyze(evLo).RedundantPct
	rHi := Analyze(evHi).RedundantPct
	if rHi <= rLo {
		t.Fatalf("locality did not raise redundancy: %.1f%% vs %.1f%%", rHi, rLo)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := xrand.New(1)
	z := NewZipf(1000, 1.1, rng)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	if counts[0] < counts[500]*10 {
		t.Fatalf("rank 0 (%d) not ≫ rank 500 (%d) under alpha=1.1", counts[0], counts[500])
	}
	// Uniform when alpha = 0.
	u := NewZipf(10, 0, xrand.New(2))
	uc := make([]int, 10)
	for i := 0; i < 50000; i++ {
		uc[u.Sample()]++
	}
	for r, c := range uc {
		if math.Abs(float64(c)-5000) > 500 {
			t.Fatalf("alpha=0 rank %d count %d not ~uniform", r, c)
		}
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewZipf(0, 1, xrand.New(1))
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Users = 0 },
		func(c *Config) { c.Cells = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.RatePerUser = 0 },
		func(c *Config) { c.Objects = 0 },
		func(c *Config) { c.ZipfAlpha = -1 },
		func(c *Config) { c.Locality = 1.5 },
		func(c *Config) { c.MoveProb = -0.1 },
	}
	for i, mutate := range bad {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPanoFramesFollowTime(t *testing.T) {
	cfg := baseConfig()
	cfg.TaskMix = TaskMix{Pano: 1}
	events, _ := Generate(cfg)
	for _, e := range events {
		if e.Task != wire.TaskPano {
			t.Fatal("non-pano event under pano-only mix")
		}
		want := int(e.At / (33 * time.Millisecond))
		if e.Frame != want {
			t.Fatalf("frame %d at %v, want %d", e.Frame, e.At, want)
		}
	}
}

func TestAnalyzeCounts(t *testing.T) {
	events := []Event{
		{User: 1, Object: 5, Task: wire.TaskRecognize},
		{User: 2, Object: 5, Task: wire.TaskRecognize, At: time.Second},
		{User: 1, Object: 6, Task: wire.TaskRender, At: 2 * time.Second},
	}
	st := Analyze(events)
	if st.Events != 3 || st.Users != 2 || st.UniqueObjs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.RedundantPct-33.33) > 1 {
		t.Fatalf("redundancy = %v", st.RedundantPct)
	}
	if st.Duration != 2*time.Second {
		t.Fatalf("duration = %v", st.Duration)
	}
}
