package serve

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateHits = flag.Bool("update-hits", false, "rewrite testdata/hits.golden.txt")

// hitPool is the warm query pool the serve benchmark replays: every
// POST endpoint, each query with alternate spellings of one key.
var hitPool = []struct {
	path      string
	spellings []string
}{
	{"/v1/simulate", []string{
		`{"spec":{"protocol":"flock","param":4},"x":6,"trials":3,"seed":11,"max_steps":50000}`,
		`{"max_steps":50000,"seed":11,"trials":3,"x":6,"spec":{"param":4,"protocol":"flock"}}`,
		`{"spec":{"protocol":"flock","param":4},"x":6,"trials":3,"seed":11,"max_steps":50000,"scheduler":"weighted","patience":0}`,
	}},
	{"/v1/simulate", []string{
		`{"spec":{"protocol":"example42","param":3},"x":5,"trials":2,"seed":1,"max_steps":50000}`,
		`{"spec":{"param":3,"protocol":"example42"},"x":5,"trials":2,"max_steps":50000}`,
	}},
	{"/v1/simulate", []string{
		`{"spec":{"protocol":"majority","param":0},"x":9,"y":6,"trials":2,"seed":5,"max_steps":50000}`,
		`{"y":6,"x":9,"spec":{"protocol":"majority"},"trials":2,"seed":5,"max_steps":50000,"scheduler":"weighted"}`,
	}},
	{"/v1/simulate", []string{
		`{"spec":{"protocol":"power2","param":8},"x":300,"trials":2,"seed":2,"max_steps":200000,"scheduler":"countbatch"}`,
		`{"scheduler":"countbatch","batch":64,"eps":0.05,"spec":{"protocol":"power2","param":8},"x":300,"trials":2,"seed":2,"max_steps":200000}`,
	}},
	{"/v1/simulate", []string{
		`{"spec":{"protocol":"flock","param":4},"x":3,"trials":3,"seed":11,"max_steps":50000}`,
		`{"x":3,"trials":3,"seed":11,"max_steps":50000,"patience":0,"spec":{"param":4,"protocol":"flock"}}`,
	}},
	{"/v1/verify", []string{
		`{"spec":{"protocol":"flock","param":2},"max_x":5,"budget":200000}`,
		`{"budget":200000,"spec":{"param":2,"protocol":"flock"}}`,
	}},
	{"/v1/verify", []string{
		`{"spec":{"protocol":"example42","param":2},"max_x":4,"budget":400000}`,
		`{"max_x":4,"budget":400000,"spec":{"param":2,"protocol":"example42"}}`,
	}},
	{"/v1/bounds", []string{`{"op":"thm43","d":6}`, `{"d":6,"op":"thm43","w":2,"l":2}`}},
	{"/v1/bounds", []string{`{"op":"rackoff"}`, `{"op":"rackoff","d":5,"t":1,"r":1}`}},
	{"/v1/bounds", []string{`{"op":"section8","d":4,"t":2,"l":2}`, `{"op":"section8"}`}},
	{"/v1/bounds", []string{`{"op":"cor44","kmax":12}`, `{"kmax":12,"op":"cor44","h":0.49,"m":2}`}},
	{"/v1/bounds", []string{`{"op":"minstates"}`, `{"op":"minstates","log10n":9,"m":2}`}},
	{"/v1/sweep", []string{
		`{"spec":{"protocol":"flock","param":4},"sizes":[2,4,8],"trials":6,"seed":3,"max_steps":50000,"block":3}`,
		`{"block":3,"max_steps":50000,"seed":3,"trials":6,"sizes":[2,4,8],"spec":{"param":4,"protocol":"flock"},"scheduler":"weighted"}`,
	}},
	{"/v1/sweep", []string{
		`{"spec":{"protocol":"power2","param":3},"sizes":[4,8,16],"trials":4,"seed":7,"max_steps":100000}`,
		`{"spec":{"protocol":"power2","param":3},"sizes":[4,8,16],"trials":4,"seed":7,"max_steps":100000,"block":1}`,
	}},
}

var jobID = regexp.MustCompile(`"job": "j[0-9]{8}"`)

// The response body of every warm hit in the pool is pinned byte for
// byte, the job id masked: a hit must answer with exactly the bytes a
// client has always received for that query.
func TestHitResponsesGolden(t *testing.T) {
	h := testServer(t).Handler()
	var got bytes.Buffer
	for _, e := range hitPool {
		serveOnce(t, h, e.path, e.spellings[0], "miss")
		for _, body := range e.spellings {
			resp := serveOnce(t, h, e.path, body, "hit")
			fmt.Fprintf(&got, "POST %s %s\n%s", e.path, body, jobID.ReplaceAll(resp, []byte(`"job": "j########"`)))
		}
	}
	golden := filepath.Join("testdata", "hits.golden.txt")
	if *updateHits {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("hit responses drifted from %s:\n got %s\nwant %s", golden, got.Bytes(), want)
	}
}

func serveOnce(t *testing.T, h http.Handler, path, body, cache string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != cache {
		t.Fatalf("POST %s %s: status %d X-Cache %q, want 200 %s: %s", path, body, rec.Code, rec.Header().Get("X-Cache"), cache, rec.Body.String())
	}
	return rec.Body.Bytes()
}
