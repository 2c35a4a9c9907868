package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestRunDefaults(t *testing.T) {
	if err := run(nil, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunSchedulers(t *testing.T) {
	for _, sched := range []string{"weighted", "uniform", "auto", "countbatch"} {
		args := []string{
			"-protocol", "flock", "-param", "4", "-x", "8",
			"-trials", "2", "-steps", "200000", "-scheduler", sched,
		}
		if err := run(args, io.Discard); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunCountBatchOptions(t *testing.T) {
	args := []string{
		"-protocol", "power2", "-param", "10", "-x", "1024", "-patience", "0",
		"-steps", "10000000", "-scheduler", "countbatch", "-batch", "32", "-eps", "0.02",
	}
	if err := run(args, io.Discard); err != nil {
		t.Errorf("run(%v): %v", args, err)
	}
}

func TestRunMajority(t *testing.T) {
	args := []string{"-protocol", "majority", "-x", "7", "-y", "3", "-steps", "200000"}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nope"},
		{"-scheduler", "nope"},
		// Example 4.1 has width-n transitions: the uniform scheduler
		// must reject it.
		{"-protocol", "example41", "-param", "3", "-scheduler", "uniform"},
		// -batch off countbatch/auto would be silently ignored.
		{"-scheduler", "uniform", "-batch", "128"},
		// A negative batch size would be silently coerced to the default.
		{"-scheduler", "auto", "-batch", "-5"},
		// -eps outside (0,1) or off the countbatch scheduler.
		{"-scheduler", "countbatch", "-eps", "1.5"},
		{"-scheduler", "weighted", "-eps", "0.1"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v): error expected", args)
		}
	}
	// The removed batched scheduler points at its replacement.
	if err := run([]string{"-scheduler", "batched"}, io.Discard); err == nil || !strings.Contains(err.Error(), "auto") {
		t.Errorf("-scheduler batched: error %v does not name auto", err)
	}
}

// -workers is removed; passing it names the removal.
func TestRunRemovedWorkersFlag(t *testing.T) {
	err := run([]string{"-protocol", "flock", "-param", "4", "-x", "8", "-workers", "2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-workers was removed") {
		t.Errorf("-workers 2: error %v does not name the removal", err)
	}
}

// flag stops at the first positional argument, so a stray one would
// silently drop every flag after it; each must be rejected by name.
func TestStrayArguments(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		stray string
	}{
		{[]string{"flock"}, "flock"},
		{[]string{"-x", "5", "flock"}, "flock"},
		{[]string{"-protocol", "flock", "extra", "-x", "5"}, "extra"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), `unexpected argument "`+tc.stray+`"`) {
			t.Errorf("run(%v) = %v, want it to name the argument %q", tc.args, err, tc.stray)
		}
	}
}

// ppsim and /v1/simulate are one query with one evaluation: the same
// request, spelled as flags and as a request body that omits what the
// flags leave at their defaults, prints exactly the members of the
// served result document, and the query ppsim prints keys like the
// body.
func TestRunMatchesServe(t *testing.T) {
	srv, err := serve.New(serve.Config{StoreDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, tc := range []struct {
		name string
		args []string
		body string
	}{
		{"defaults", nil, `{"spec":{"protocol":"example42","param":2}}`},
		{"flock weighted",
			[]string{"-protocol", "flock", "-param", "8", "-x", "40", "-trials", "3", "-seed", "5"},
			`{"spec":{"protocol":"flock","param":8},"x":40,"trials":3,"seed":5}`},
		{"power2 countbatch",
			[]string{"-protocol", "power2", "-param", "10", "-x", "4096", "-trials", "2", "-scheduler", "countbatch", "-batch", "32"},
			`{"spec":{"protocol":"power2","param":10},"x":4096,"trials":2,"scheduler":"countbatch","batch":32}`},
		{"majority y",
			[]string{"-protocol", "majority", "-x", "7", "-y", "3", "-trials", "4", "-steps", "200000", "-patience", "1000"},
			`{"spec":{"protocol":"majority","param":2},"x":7,"y":3,"trials":4,"max_steps":200000,"patience":1000}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			printed := printedMembers(out.String())
			key, doc := serveResult(t, h, tc.body)
			if len(doc) == 0 {
				t.Fatal("empty result document")
			}
			for member, want := range doc {
				if got, ok := printed[member]; !ok || !sameValue(got, want) {
					t.Errorf("%s: printed %q (present %v), /v1/simulate %q", member, got, ok, want)
				}
			}
			if again, _ := serveResult(t, h, printed["query"]); again != key {
				t.Errorf("printed query %s keys to %s, the request body to %s", printed["query"], again, key)
			}
		})
	}
}

// printedMembers reads ppsim's "member: value" lines.
func printedMembers(out string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok {
			m[k] = v
		}
	}
	return m
}

// serveResult posts body to /v1/simulate and returns the response's
// key and its result document's members, the stats object's flattened,
// each as fmt.Sprint renders it.
func serveResult(t *testing.T, h http.Handler, body string) (string, map[string]string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", body, rec.Code, rec.Body)
	}
	var env struct {
		Key    string         `json:"key"`
		Result map[string]any `json:"result"`
	}
	dec := json.NewDecoder(rec.Body)
	dec.UseNumber()
	if err := dec.Decode(&env); err != nil {
		t.Fatal(err)
	}
	doc := map[string]string{}
	var flatten func(map[string]any)
	flatten = func(m map[string]any) {
		for k, v := range m {
			if sub, ok := v.(map[string]any); ok {
				flatten(sub)
			} else {
				doc[k] = fmt.Sprint(v)
			}
		}
	}
	flatten(env.Result)
	return env.Key, doc
}

// sameValue compares a printed value with a document's: as text, or
// as numbers where the two spell one float differently.
func sameValue(printed, doc string) bool {
	if printed == doc {
		return true
	}
	a, errA := strconv.ParseFloat(printed, 64)
	b, errB := strconv.ParseFloat(doc, 64)
	return errA == nil && errB == nil && a == b
}
