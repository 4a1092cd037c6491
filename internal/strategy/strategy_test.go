package strategy

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"querycentric/internal/rng"
)

// outcomeOf is a trial whose outcome is a pure function of its stream:
// found with probability 1/2, up to 7 hops and up to 99 messages.
func outcomeOf(r *rng.Source) Outcome {
	return Outcome{Found: r.Intn(2) == 0, Hops: r.Intn(8), Messages: r.Intn(100)}
}

func TestRunTrialsWorkerInvariant(t *testing.T) {
	base := rng.NewNamed(7, "strategy/test")
	var want Tally
	for _, workers := range []int{1, 2, 8} {
		got, err := RunTrials(workers, 3, 203, base, "trial/", func() int { return 0 },
			func(_ int, _ int, r *rng.Source) (Outcome, error) { return outcomeOf(r), nil })
		if err != nil {
			t.Fatal(err)
		}
		if got.Queries != 200 || got.Hits == 0 || got.Hits == 200 {
			t.Fatalf("workers %d: degenerate tally %+v", workers, got)
		}
		if workers == 1 {
			want = got
		} else if got != want {
			t.Fatalf("workers %d: tally %+v, workers 1: %+v", workers, got, want)
		}
	}
}

// TestRunTrialsStreamDerivation pins the derivation contract: trial i of a
// lo..hi range draws from base.Derive(stream + i), whatever its position in
// the range and whichever worker runs it.
func TestRunTrialsStreamDerivation(t *testing.T) {
	const lo, hi, stream = 10, 42, "sample/3/trial/"
	base := rng.NewNamed(11, "strategy/test")
	for _, workers := range []int{1, 8} {
		_, err := RunTrials(workers, lo, hi, base, stream, func() int { return 0 },
			func(_ int, i int, r *rng.Source) (Outcome, error) {
				if i < lo || i >= hi {
					return Outcome{}, fmt.Errorf("trial %d outside [%d,%d)", i, lo, hi)
				}
				if got, want := r.Uint64(), base.Derive(stream+strconv.Itoa(i)).Uint64(); got != want {
					return Outcome{}, fmt.Errorf("trial %d: stream draws %#x, want %#x", i, got, want)
				}
				return Outcome{}, nil
			})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
	}
}

func TestRunTrialsReturnsTrialError(t *testing.T) {
	errFive, errNine := errors.New("trial 5 failed"), errors.New("trial 9 failed")
	for _, workers := range []int{1, 2, 8} {
		_, err := RunTrials(workers, 0, 20, rng.New(1), "trial/", func() int { return 0 },
			func(_ int, i int, r *rng.Source) (Outcome, error) {
				switch i {
				case 5:
					return Outcome{}, errFive
				case 9:
					return Outcome{}, errNine
				}
				return outcomeOf(r), nil
			})
		if !errors.Is(err, errFive) {
			t.Fatalf("workers %d: err = %v, want the lowest failing trial's %v", workers, err, errFive)
		}
	}
}

func TestTallyMergeEqualsAdd(t *testing.T) {
	r := rng.New(3)
	var outs []Outcome
	for i := 0; i < 50; i++ {
		outs = append(outs, outcomeOf(r))
	}
	var whole Tally
	for _, o := range outs {
		whole.Add(o)
	}
	for _, cut := range []int{0, 1, 17, 50} {
		var a, b Tally
		for _, o := range outs[:cut] {
			a.Add(o)
		}
		for _, o := range outs[cut:] {
			b.Add(o)
		}
		a.Merge(b)
		if a != whole {
			t.Fatalf("cut %d: merged %+v, sequential %+v", cut, a, whole)
		}
	}
	if whole.Success() != float64(whole.Hits)/50 || whole.MeanMessages() != float64(whole.Messages)/50 ||
		whole.MeanHops() != float64(whole.Hops)/float64(whole.Hits) {
		t.Fatalf("means disagree with the sums: %+v", whole)
	}
	var empty Tally
	if *empty.Stats() != (Stats{}) {
		t.Fatalf("empty tally renders %+v, want zero Stats", *empty.Stats())
	}
}

// TestWorkloadDerivation pins the workload contract every strategy's
// RunWorkload follows: the base stream is named "strategy/workload" and
// query i draws from its "query/i" child, so two strategies at one seed see
// the same (origin, object) sequence.
func TestWorkloadDerivation(t *testing.T) {
	base := WorkloadStream(5)
	if got, want := base.Uint64(), rng.NewNamed(5, "strategy/workload").Uint64(); got != want {
		t.Fatalf("WorkloadStream(5) draws %#x, want %#x", got, want)
	}
	base = WorkloadStream(5)
	for _, i := range []int{0, 1, 1000} {
		if got, want := QueryStream(base, i).Uint64(), base.Derive(fmt.Sprintf("query/%d", i)).Uint64(); got != want {
			t.Fatalf("QueryStream(%d) draws %#x, want %#x", i, got, want)
		}
	}
	if QueryStream(base, 0).Uint64() == QueryStream(base, 1).Uint64() {
		t.Fatal("queries 0 and 1 share a stream")
	}
	if WorkloadStream(5).Uint64() == WorkloadStream(6).Uint64() {
		t.Fatal("seeds 5 and 6 share a workload stream")
	}
}
