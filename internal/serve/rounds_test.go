package serve

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// BenchmarkCoalescedRounds drives rounds of two identical requests of
// serve-hot's shape (root 2, level 3, BiCGStab) over loopback against a
// server of default Config and reports the integrations a round took, from
// the server's own serve.batch.tasks − serve.batch.coalesced: 2·level+1 when
// the second request rode every flight of the first, twice that when it
// rode none. The shares of rounds at either end are reported beside the
// mean.
func BenchmarkCoalescedRounds(b *testing.B) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Start()
	defer s.Drain(time.Minute)
	req := SolveRequest{Root: 2, Level: 3, Tol: 1e-3}
	if _, resp, _, err := tryPost(ts.URL, req, nil); err != nil || resp.Status != StatusCompleted {
		b.Fatalf("warm-up: status %q err %v", resp.Status, err)
	}
	tasks, coalesced := s.rec.Counter("serve.batch.tasks"), s.rec.Counter("serve.batch.coalesced")
	solves := func() int64 { return tasks.Value() - coalesced.Value() }
	fam := int64(2*req.Level + 1)
	var once, twice int
	start := solves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := solves()
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, resp, _, err := tryPost(ts.URL, req, nil); err != nil || resp.Status != StatusCompleted {
					b.Errorf("round %d: status %q err %v", i, resp.Status, err)
				}
			}()
		}
		wg.Wait()
		switch solves() - before {
		case fam:
			once++
		case 2 * fam:
			twice++
		}
	}
	b.ReportMetric(float64(solves()-start)/float64(b.N), "integrations/round")
	b.ReportMetric(float64(once)/float64(b.N), "share-once")
	b.ReportMetric(float64(twice)/float64(b.N), "share-twice")
}
