package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestRunVerifiesExample42(t *testing.T) {
	if err := run([]string{"-protocol", "example42", "-param", "2", "-maxx", "4"}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunVerifiesFlock(t *testing.T) {
	if err := run([]string{"-protocol", "flock", "-param", "3", "-maxx", "5"}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nope"},
		// majority decides no counting predicate.
		{"-protocol", "majority"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v): error expected", args)
		}
	}
}

// The out-of-core closure flags were removed; passing either names the
// removal instead of running or failing as an unknown flag.
func TestRunRemovedSpillFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-spill-dir", t.TempDir()},
		{"-spill-mb", "512"},
	} {
		err := run(append([]string{"-protocol", "flock", "-param", "3", "-maxx", "2"}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), args[0]+" was removed") || !strings.Contains(err.Error(), "in RAM") {
			t.Errorf("run(%v): error %v does not name the removal", args, err)
		}
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
		{[]string{"-maxx", "3", "flock"}, "flock"},
		{[]string{"-protocol", "flock", "extra", "-maxx", "3"}, "extra"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), `unexpected argument "`+tc.stray+`"`) {
			t.Errorf("run(%v) = %v, want it to name the argument %q", tc.args, err, tc.stray)
		}
	}
}

// ppverify and /v1/verify are one query with one evaluation: the same
// request, spelled as flags and as a request body that omits what the
// flags leave at their defaults, prints exactly the members of the
// served result document, or fails with the served error, and the
// query ppverify prints keys like the body.
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
		{"example42 defaults", []string{"-protocol", "example42", "-param", "3"},
			`{"spec":{"protocol":"example42","param":3}}`},
		{"flock maxx", []string{"-protocol", "flock", "-param", "3", "-maxx", "5"},
			`{"spec":{"protocol":"flock","param":3},"max_x":5}`},
		{"flock failing budget", []string{"-protocol", "flock", "-param", "4", "-budget", "10"},
			`{"spec":{"protocol":"flock","param":4},"budget":10}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			runErr := run(tc.args, &out)
			printed := printedMembers(out.String())
			key, doc, serveErr := serveResult(t, h, tc.body)
			if runErr != nil || serveErr != "" {
				if runErr == nil || runErr.Error() != serveErr {
					t.Fatalf("run(%v) = %v, /v1/verify error %q", tc.args, runErr, serveErr)
				}
			} else if len(doc) == 0 {
				t.Fatal("empty result document")
			}
			for member, want := range doc {
				if got, ok := printed[member]; !ok || got != want {
					t.Errorf("%s: printed %q (present %v), /v1/verify %q", member, got, ok, want)
				}
			}
			if again, _, _ := serveResult(t, h, printed["query"]); again != key {
				t.Errorf("printed query %s keys to %s, the request body to %s", printed["query"], again, key)
			}
		})
	}
}

// printedMembers reads ppverify's "member: value" lines.
func printedMembers(out string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok {
			m[k] = v
		}
	}
	return m
}

// serveResult posts body to /v1/verify and returns the response's key
// and its result document's members, each as fmt.Sprint renders it,
// or the error a failed compute answers with.
func serveResult(t *testing.T, h http.Handler, body string) (key string, doc map[string]string, errMsg string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/verify", strings.NewReader(body)))
	var env struct {
		Key    string         `json:"key"`
		Result map[string]any `json:"result"`
		Error  string         `json:"error"`
	}
	dec := json.NewDecoder(rec.Body)
	dec.UseNumber()
	if err := dec.Decode(&env); err != nil {
		t.Fatal(err)
	}
	doc = map[string]string{}
	for k, v := range env.Result {
		doc[k] = fmt.Sprint(v)
	}
	return env.Key, doc, env.Error
}
