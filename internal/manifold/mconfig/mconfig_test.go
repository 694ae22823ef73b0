package mconfig

import (
	"strings"
	"testing"
)

func TestParsePaperConfig(t *testing.T) {
	c, err := Parse(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Hosts) != 5 {
		t.Fatalf("%d hosts", len(c.Hosts))
	}
	if c.Hosts["host1"] != "diplice.sen.cwi.nl" {
		t.Fatalf("host1 = %s", c.Hosts["host1"])
	}
	locus := c.Loci["mainprog"]
	want := []string{
		"diplice.sen.cwi.nl", "alboka.sen.cwi.nl", "altfluit.sen.cwi.nl",
		"arghul.sen.cwi.nl", "basfluit.sen.cwi.nl",
	}
	if len(locus) != len(want) {
		t.Fatalf("locus = %v", locus)
	}
	for i := range want {
		if locus[i] != want[i] {
			t.Fatalf("locus[%d] = %s, want %s", i, locus[i], want[i])
		}
	}
}

func TestHostNamesOrder(t *testing.T) {
	c, err := Parse(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := c.HostNames()
	if names[0] != "diplice.sen.cwi.nl" || names[4] != "basfluit.sen.cwi.nl" {
		t.Fatalf("names = %v", names)
	}
}

func TestLiteralHostInLocus(t *testing.T) {
	c, err := Parse("{locus t direct.example.org}")
	if err != nil {
		t.Fatal(err)
	}
	if c.Loci["t"][0] != "direct.example.org" {
		t.Fatalf("locus = %v", c.Loci["t"])
	}
}

// badConfigs are CONFIG files Parse must refuse.
var badConfigs = []string{
	"{host only_two}",
	"{host a x} {host a y}",
	"{locus t $missing}",
	"{locus t}",
	"{banana 1 2}",
	"no braces here",
}

func TestParseErrors(t *testing.T) {
	for _, src := range badConfigs {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	src := "# config\n\n{host h1 a.example} # inline\n{locus t $h1}\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Loci["t"][0] != "a.example" {
		t.Fatalf("locus = %v", c.Loci["t"])
	}
}

func TestPlacerRoundRobin(t *testing.T) {
	c, err := Parse(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Placer("mainprog")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 12; i++ {
		seen[p.Next()]++
	}
	// 12 placements over 5 hosts: counts of 2 or 3 each.
	for _, h := range p.Hosts() {
		if seen[h] < 2 || seen[h] > 3 {
			t.Fatalf("host %s placed %d times, want 2-3 (%v)", h, seen[h], seen)
		}
	}
}

func TestPlacerUnknownTask(t *testing.T) {
	c, _ := Parse(PaperConfig())
	if _, err := c.Placer("ghost"); err == nil || !strings.Contains(err.Error(), "no locus") {
		t.Fatalf("err = %v", err)
	}
}

// FuzzParseConfig: whatever the file, Parse either refuses it or returns a
// configuration whose host names come in declaration order, one a
// variable, and whose every locus names at least one machine, which its
// placer hands out round-robin.
func FuzzParseConfig(f *testing.F) {
	f.Add(PaperConfig())
	for _, bad := range badConfigs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		if n := len(c.HostNames()); n != len(c.Hosts) {
			t.Fatalf("%q: %d host names for %d variables", src, n, len(c.Hosts))
		}
		for task, locus := range c.Loci {
			p, err := c.Placer(task)
			if err != nil || len(locus) == 0 {
				t.Fatalf("%q: locus %s = %v: %v", src, task, locus, err)
			}
			for i := 0; i < 2*len(locus); i++ {
				if h := p.Next(); h != locus[i%len(locus)] {
					t.Fatalf("%q: placement %d of %s on %s, want %s", src, i, task, h, locus[i%len(locus)])
				}
			}
		}
	})
}
