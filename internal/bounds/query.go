package bounds

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// Query is one bounds evaluation as ppbounds and /v1/bounds ask for
// it: Op names it, the other fields are its parameters (zero where the
// op takes none). The JSON members are the /v1/bounds request members.
type Query struct {
	// Op is thm43, minstates, cor44, rackoff or section8.
	Op string `json:"op"`
	// D is the state count: thm43 evaluates rows d = 1..D; rackoff and
	// section8 take it as |P|.
	D int `json:"d,omitempty"`
	// W and L are the interaction width and the leader norm (thm43);
	// section8 takes L as ‖ρ_L‖∞.
	W int64 `json:"w,omitempty"`
	L int64 `json:"l,omitempty"`
	// T and R are ‖T‖∞ and ‖target‖∞ (rackoff; section8 takes T).
	T int64 `json:"t,omitempty"`
	R int64 `json:"r,omitempty"`
	// Log10N is log10 of minstates' threshold n.
	Log10N float64 `json:"log10n,omitempty"`
	// H is Corollary 4.4's exponent, in (0, 1/2).
	H float64 `json:"h,omitempty"`
	// M bounds the width and the leaders (minstates, cor44).
	M int64 `json:"m,omitempty"`
	// KMax is cor44's last row: k = 1..KMax, n = 2^(2^k).
	KMax int `json:"kmax,omitempty"`
}

// A param is one parameter an op takes: its /v1/bounds member, its
// ppbounds flag, the default both take when it is not given, and the
// flag's usage line.
type param struct {
	member, flag string
	def          float64
	usage        string
}

// params lists the parameters of every op: the one table of bounds
// defaults, read by ppbounds' flags and /v1/bounds' omitted members.
var params = map[string][]param{
	"thm43":     {{"d", "dmax", 10, "max state count"}, {"w", "w", 2, "interaction-width"}, {"l", "l", 2, "leaders"}},
	"minstates": {{"log10n", "log10n", 9, "log10 of the threshold n"}, {"m", "m", 2, "width and leader bound"}},
	"cor44":     {{"kmax", "kmax", 20, "max tower level (n = 2^(2^k))"}, {"h", "exp", 0.49, "exponent h < 1/2"}, {"m", "m", 2, "width and leader bound"}},
	"rackoff":   {{"d", "d", 5, "states |P|"}, {"t", "t", 1, "‖T‖∞"}, {"r", "r", 1, "‖target‖∞"}},
	"section8":  {{"d", "d", 4, "states |P| (≥ 2)"}, {"t", "t", 2, "‖T‖∞"}, {"l", "l", 2, "‖ρ_L‖∞"}},
}

// A field is one parameter of a Query: its /v1/bounds member and a
// pointer to its int, int64 or float64 field.
type field struct {
	member string
	ptr    any
}

// fields lists q's parameters in field order.
func (q *Query) fields() []field {
	return []field{{"d", &q.D}, {"w", &q.W}, {"l", &q.L}, {"t", &q.T}, {"r", &q.R},
		{"log10n", &q.Log10N}, {"h", &q.H}, {"m", &q.M}, {"kmax", &q.KMax}}
}

// Normalize gives every parameter of q's op that is zero its default,
// as /v1/bounds reads an omitted member, and applies Check. It rejects
// an unknown op and a member, the first in field order, that is set
// although the op does not take it: a stray member would split the
// cache between equal evaluations. It is idempotent.
func (q *Query) Normalize() error {
	ps, known := params[q.Op]
	if !known {
		return fmt.Errorf("bounds: unknown op %q (have thm43, minstates, cor44, rackoff, section8)", q.Op)
	}
	for _, f := range q.fields() {
		v := reflect.ValueOf(f.ptr).Elem()
		i := slices.IndexFunc(ps, func(p param) bool { return p.member == f.member })
		switch {
		case i >= 0 && v.IsZero():
			v.Set(reflect.ValueOf(ps[i].def).Convert(v.Type()))
		case i < 0 && !v.IsZero():
			return fmt.Errorf("bounds: op %s does not take %q", q.Op, f.member)
		}
	}
	return q.Check()
}

// Flags defines on fs one flag per parameter of q's op, bound to q's
// field and set to the parameter's default. It reports whether the op
// is known.
func (q *Query) Flags(fs *flag.FlagSet) bool {
	ps, known := params[q.Op]
	fields := q.fields()
	for _, p := range ps {
		i := slices.IndexFunc(fields, func(f field) bool { return f.member == p.member })
		switch v := fields[i].ptr.(type) {
		case *int:
			fs.IntVar(v, p.flag, int(p.def), p.usage)
		case *int64:
			fs.Int64Var(v, p.flag, int64(p.def), p.usage)
		case *float64:
			fs.Float64Var(v, p.flag, p.def, p.usage)
		}
	}
	return known
}

// Row is one row of a table op's result: K is thm43's d or cor44's k.
type Row struct {
	K     int     `json:"k"`
	Value float64 `json:"value"`
}

// Result is an evaluated query, the /v1/bounds result document.
// Scalar ops fill Value; table ops (thm43, cor44) fill Rows; section8
// fills Cascade.
type Result struct {
	Op      string             `json:"op"`
	Value   float64            `json:"value,omitempty"`
	Rows    []Row              `json:"rows,omitempty"`
	Cascade map[string]float64 `json:"cascade,omitempty"`
	// Unit names what the numbers are (log10, states, ...), so the
	// document is self-describing.
	Unit string `json:"unit"`
}

// Eval applies Check, which rejects an unknown op, and evaluates the
// query: the one evaluation behind ppbounds' printed text and the
// /v1/bounds document.
func (q Query) Eval() (*Result, error) {
	if err := q.Check(); err != nil {
		return nil, err
	}
	res := &Result{Op: q.Op}
	switch q.Op {
	case "thm43":
		res.Unit = "log10(max n) per d"
		for d := 1; d <= q.D; d++ {
			res.Rows = append(res.Rows, Row{K: d, Value: Theorem43MaxN(d, q.W, q.L).Log10()})
		}
	case "minstates":
		res.Unit = "states"
		res.Value = float64(MinStatesTheorem43(q.Log10N, q.M))
	case "cor44":
		res.Unit = "state lower bound per k (n = 2^(2^k))"
		for k := 1; k <= q.KMax; k++ {
			res.Rows = append(res.Rows, Row{K: k, Value: Corollary44LowerBound(math.Pow(2, float64(k)), q.H, q.M)})
		}
	case "rackoff":
		res.Unit = "log10(covering word length)"
		res.Value = Rackoff(q.D, q.R, q.T).Log10()
	case "section8":
		res.Unit = "log10 per cascade stage"
		s8, err := NewSection8(q.D, q.T, q.L)
		if err != nil {
			return nil, err
		}
		res.Cascade = map[string]float64{
			"b": s8.B.Log10(),
			"h": s8.H.Log10(),
			"k": s8.K.Log10(),
			"a": s8.A.Log10(),
			"l": s8.L.Log10(),
			"n": s8.N.Log10(),
		}
	}
	return res, nil
}
