package core

import (
	"sync"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
	"github.com/edge-immersion/coic/internal/xrand"
)

// This file model-checks the scheduler against a reference
// implementation and audits its accounting under concurrency. The
// invariants the connection's workers lean on:
//
//  1. pop dispatches in strict class-then-EDF order;
//  2. no admitted job is ever lost or dispatched twice, whatever mix of
//     push, pop and close races over the queue.

// schedModel is the obviously-correct reference: a flat slice scanned
// for the scheduling-best job on every take.
type schedModel struct {
	jobs []schedJob
}

func (m *schedModel) push(j schedJob) { m.jobs = append(m.jobs, j) }

// headIdx locates the job pop must return: highest class, before()
// within it.
func (m *schedModel) headIdx() int {
	best := -1
	for i := range m.jobs {
		switch {
		case best < 0:
			best = i
		case classIndex(m.jobs[i].class) != classIndex(m.jobs[best].class):
			if classIndex(m.jobs[i].class) > classIndex(m.jobs[best].class) {
				best = i
			}
		case m.jobs[i].before(&m.jobs[best]):
			best = i
		}
	}
	return best
}

func (m *schedModel) pop() (schedJob, bool) {
	i := m.headIdx()
	if i < 0 {
		return schedJob{}, false
	}
	j := m.jobs[i]
	m.jobs = append(m.jobs[:i], m.jobs[i+1:]...)
	return j, true
}

// TestSchedQueuePropertyModelCheck drives randomized push / pop traces
// through the real queue and the reference model in lockstep; every dispatched job must match the model's choice exactly
// (identified by trace, which the test uses as a job serial).
func TestSchedQueuePropertyModelCheck(t *testing.T) {
	rng := xrand.New(20260808)
	base := time.Now().Add(time.Hour) // far future: expiry never interferes
	for trial := 0; trial < 50; trial++ {
		q := newSchedQueue(1 << 20) // effectively unbounded: no shed path here
		model := &schedModel{}
		var serial uint64
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // push
				serial++
				j := schedJob{
					class: wire.QoS(rng.Intn(wire.NumQoSClasses)),
					trace: serial,
				}
				if rng.Intn(3) > 0 {
					j.deadline = base.Add(time.Duration(rng.Intn(5)) * time.Second)
				}
				if _, ok := q.push(j); !ok {
					t.Fatal("push rejected below depth")
				}
				model.push(j)
			default: // pop (only when non-empty: pop blocks)
				if len(model.jobs) == 0 {
					continue
				}
				got, ok := q.pop()
				want, _ := model.pop()
				if !ok || got.trace != want.trace {
					t.Fatalf("trial %d step %d: pop = job %d, model says %d", trial, step, got.trace, want.trace)
				}
			}
		}
		// Drain the remainder: the full dispatch order must match.
		for len(model.jobs) > 0 {
			got, ok := q.pop()
			want, _ := model.pop()
			if !ok || got.trace != want.trace {
				t.Fatalf("trial %d final drain: pop = job %d, model says %d", trial, got.trace, want.trace)
			}
		}
		if q.size != 0 {
			t.Fatalf("queue holds %d jobs after the model emptied", q.size)
		}
	}
}

// TestSchedQueuePropertyNoJobLost hammers one queue with concurrent
// producers and poppers, then audits the accounting: every job a
// producer pushed is dispatched exactly once, shed by admission, or
// rejected — never lost, never doubled.
func TestSchedQueuePropertyNoJobLost(t *testing.T) {
	const (
		producers   = 4
		jobsPerProd = 300
		consumers   = 4
	)
	q := newSchedQueue(32)
	var (
		mu         sync.Mutex
		dispatched = map[uint64]int{} // trace → times seen by a consumer
		shed       = map[uint64]int{} // trace → times shed at admission
		rejected   uint64
		pushed     uint64
	)
	var prod sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		prod.Add(1)
		go func(pr int) {
			defer prod.Done()
			rng := xrand.New(uint64(1000 + pr))
			for i := 0; i < jobsPerProd; i++ {
				j := schedJob{
					class: wire.QoS(rng.Intn(wire.NumQoSClasses)),
					trace: uint64(pr*jobsPerProd + i + 1),
				}
				switch rng.Intn(3) {
				case 0: // already expired: sheddable under pressure
					j.deadline = time.Now().Add(-time.Hour)
				case 1:
					j.deadline = time.Now().Add(time.Hour)
				}
				shedJobs, ok := q.push(j)
				mu.Lock()
				for _, s := range shedJobs {
					shed[s.trace]++
				}
				if ok {
					pushed++
				} else {
					rejected++
				}
				mu.Unlock()
			}
		}(pr)
	}
	var cons sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cons.Add(1)
		go func() {
			defer cons.Done()
			for {
				j, ok := q.pop()
				if !ok {
					return
				}
				mu.Lock()
				dispatched[j.trace]++
				mu.Unlock()
			}
		}()
	}
	prod.Wait()
	q.close()
	cons.Wait()

	mu.Lock()
	defer mu.Unlock()
	for trace, n := range dispatched {
		if n != 1 {
			t.Fatalf("job %d dispatched %d times", trace, n)
		}
		if shed[trace] != 0 {
			t.Fatalf("job %d both dispatched and shed", trace)
		}
	}
	for trace, n := range shed {
		if n != 1 {
			t.Fatalf("job %d shed %d times", trace, n)
		}
	}
	if got := uint64(len(dispatched) + len(shed)); got != pushed {
		t.Fatalf("accounted for %d admitted jobs (%d dispatched + %d shed), pushed %d",
			got, len(dispatched), len(shed), pushed)
	}
	if pushed+rejected != producers*jobsPerProd {
		t.Fatalf("pushed %d + rejected %d != %d offered", pushed, rejected, producers*jobsPerProd)
	}
}
