package mlink

import (
	"testing"
	"testing/quick"

	"repro/internal/manifold/mconfig"
)

func TestParsePaperFile(t *testing.T) {
	f, err := Parse(mconfig.PaperMlink())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rules) != 2 {
		t.Fatalf("%d rules", len(f.Rules))
	}
	star := f.Rules[0]
	if star.Name != "*" || !star.Perpetual || star.Load != 1 {
		t.Fatalf("wildcard rule = %+v", star)
	}
	if star.Weights["Master"] != 1 || star.Weights["Worker"] != 1 {
		t.Fatalf("weights = %v", star.Weights)
	}
	mp := f.Rules[1]
	if mp.Name != "mainprog" || len(mp.Includes) != 2 {
		t.Fatalf("mainprog rule = %+v", mp)
	}
}

func TestRuleForOverlays(t *testing.T) {
	f, err := Parse(`
		{task * {perpetual} {load 1}}
		{task big {load 6}}
	`)
	if err != nil {
		t.Fatal(err)
	}
	eff := f.RuleFor("big")
	if eff.Load != 6 || !eff.Perpetual {
		t.Fatalf("effective rule = %+v", eff)
	}
	other := f.RuleFor("other")
	if other.Load != 1 || !other.Perpetual {
		t.Fatalf("fallback rule = %+v", other)
	}
}

// badMlinks are MLINK files Parse must refuse.
var badMlinks = []string{
	"{nottask x}",
	"{task}",
	"{task t {load zero}}",
	"{task t {load 0}}",
	"{task t {weight OnlyName}}",
	"{task t {mystery 1}}",
	"{task t",
}

func TestParseErrors(t *testing.T) {
	for _, src := range badMlinks {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestCommentsIgnored(t *testing.T) {
	f, err := Parse("# mainprog.mlink\n{task * {load 2}} # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.Rules[0].Load != 2 {
		t.Fatalf("rule = %+v", f.Rules[0])
	}
}

func TestDistributedBundling(t *testing.T) {
	// The paper's file: load 1, weight 1 — every process gets its own
	// task instance.
	f, _ := Parse(mconfig.PaperMlink())
	b := NewBundler(f, "mainprog")
	m, fresh := b.Place("Master")
	if !fresh || m.Load() != 1 {
		t.Fatalf("master placement: %+v fresh=%v", m, fresh)
	}
	w1, fresh1 := b.Place("Worker")
	w2, fresh2 := b.Place("Worker")
	if !fresh1 || !fresh2 || w1.ID == w2.ID || w1.ID == m.ID {
		t.Fatalf("workers not isolated: %v %v", w1, w2)
	}
}

func TestPerpetualReuseAfterDeath(t *testing.T) {
	f, _ := Parse(mconfig.PaperMlink())
	b := NewBundler(f, "mainprog")
	w1, _ := b.Place("Worker")
	if err := b.Leave(w1, "Worker"); err != nil {
		t.Fatal(err)
	}
	if !w1.Alive() {
		t.Fatal("perpetual instance died at load zero")
	}
	w2, fresh := b.Place("Worker")
	if fresh || w2.ID != w1.ID {
		t.Fatalf("expected reuse of instance %d, got %d fresh=%v", w1.ID, w2.ID, fresh)
	}
	if b.Forks() != 1 {
		t.Fatalf("forks = %d, want 1", b.Forks())
	}
}

func TestNonPerpetualDies(t *testing.T) {
	f, _ := Parse("{task * {load 1}}")
	b := NewBundler(f, "t")
	w, _ := b.Place("Worker")
	if err := b.Leave(w, "Worker"); err != nil {
		t.Fatal(err)
	}
	if w.Alive() {
		t.Fatal("non-perpetual instance survived load zero")
	}
	_, fresh := b.Place("Worker")
	if !fresh {
		t.Fatal("dead instance was reused")
	}
}

func TestParallelBundlingLoadSix(t *testing.T) {
	// The paper: "change the load on line 5 to 6" — master plus five
	// workers share one task instance.
	f, _ := Parse(`{task * {perpetual} {load 6} {weight Master 1} {weight Worker 1}}`)
	b := NewBundler(f, "mainprog")
	m, _ := b.Place("Master")
	for i := 0; i < 5; i++ {
		w, fresh := b.Place("Worker")
		if fresh || w.ID != m.ID {
			t.Fatalf("worker %d not bundled with master", i)
		}
	}
	if m.Load() != 6 {
		t.Fatalf("load = %d, want 6", m.Load())
	}
	w, fresh := b.Place("Worker")
	if !fresh || w.ID == m.ID {
		t.Fatal("seventh process must start a new task instance")
	}
}

func TestHeavyWeight(t *testing.T) {
	f, _ := Parse("{task * {load 4} {weight Big 3} {weight Small 1}}")
	b := NewBundler(f, "t")
	i1, _ := b.Place("Big")
	i2, fresh := b.Place("Small")
	if fresh || i2.ID != i1.ID {
		t.Fatal("small should fit beside big (3+1 <= 4)")
	}
	i3, fresh := b.Place("Big")
	if !fresh || i3.ID == i1.ID {
		t.Fatal("second big cannot fit (3+4 > 4)")
	}
	if err := b.Leave(i3, "Big"); err != nil {
		t.Fatal(err)
	}
	if err := b.Leave(i3, "Big"); err == nil {
		t.Fatal("leaving more weight than present must fail")
	}
}

func TestMembersTracking(t *testing.T) {
	f, _ := Parse("{task * {load 3}}")
	b := NewBundler(f, "t")
	i, _ := b.Place("A")
	b.Place("B")
	if got := i.Members(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("members = %v", got)
	}
	if err := b.Leave(i, "A"); err != nil {
		t.Fatal(err)
	}
	if got := i.Members(); len(got) != 1 || got[0] != "B" {
		t.Fatalf("members after leave = %v", got)
	}
}

// Property: with load L and unit weights, the bundler never exceeds L
// processes per instance and forks exactly ceil(n/L) instances for n
// sequential placements.
func TestPropBundlerCapacity(t *testing.T) {
	fn := func(nRaw, lRaw uint8) bool {
		n := int(nRaw%50) + 1
		l := int(lRaw%6) + 1
		f := &File{Rules: []TaskRule{{Name: "*", Load: l, Weights: map[string]int{}}}}
		b := NewBundler(f, "t")
		for i := 0; i < n; i++ {
			b.Place("W")
		}
		for _, inst := range b.Instances() {
			if inst.Load() > l {
				return false
			}
		}
		want := (n + l - 1) / l
		return b.Forks() == want
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseMlink: whatever the file, Parse either refuses it or returns
// rules that each have a name, a load of 0 (unlimited) or more and weights
// of 0 or more; and a bundler for every rule's task places a process and
// takes it back out without error.
func FuzzParseMlink(f *testing.F) {
	f.Add(mconfig.PaperMlink())
	for _, bad := range badMlinks {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		for _, r := range file.Rules {
			if r.Name == "" || r.Load < 0 {
				t.Fatalf("%q: rule %+v", src, r)
			}
			for m, w := range r.Weights {
				if w < 0 {
					t.Fatalf("%q: rule %s weighs %s %d", src, r.Name, m, w)
				}
			}
			b := NewBundler(file, r.Name)
			if b.Rule().Name != r.Name {
				t.Fatalf("%q: bundler for %s holds the rule of %s", src, r.Name, b.Rule().Name)
			}
			inst, fresh := b.Place("Worker")
			if !fresh || b.Forks() != 1 {
				t.Fatalf("%q: the first process of %s joined instance %d (forks %d)", src, r.Name, inst.ID, b.Forks())
			}
			if err := b.Leave(inst, "Worker"); err != nil {
				t.Fatalf("%q: %v", src, err)
			}
		}
	})
}
