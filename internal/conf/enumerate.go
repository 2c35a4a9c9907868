package conf

import "fmt"

// EnumerateTotal calls fn with every configuration over the space having
// exactly total agents (the compositions of total into |P| parts), in
// lexicographic order of counts. Enumeration stops early if fn returns
// false. The Config passed to fn is reused between calls; clone it to
// retain it.
func EnumerateTotal(space *Space, total int64, fn func(Config) bool) error {
	if total < 0 {
		return fmt.Errorf("conf: negative total %d", total)
	}
	if space.Len() == 0 {
		if total == 0 {
			fn(New(space))
		}
		return nil
	}
	c := New(space)
	var rec func(pos int, remaining int64) bool
	rec = func(pos int, remaining int64) bool {
		if pos == space.Len()-1 {
			c.v[pos] = remaining
			ok := fn(c)
			c.v[pos] = 0
			return ok
		}
		for take := int64(0); take <= remaining; take++ {
			c.v[pos] = take
			if !rec(pos+1, remaining-take) {
				c.v[pos] = 0
				return false
			}
		}
		c.v[pos] = 0
		return true
	}
	rec(0, total)
	return nil
}

// CountTotal returns the number of configurations with exactly total
// agents over a d-state space: C(total+d−1, d−1). It saturates at
// math.MaxInt64 on overflow, which callers treat as "too many".
func CountTotal(d int, total int64) int64 {
	if d <= 0 {
		if total == 0 {
			return 1
		}
		return 0
	}
	// Multiplicative binomial evaluation, guarding overflow.
	const maxInt64 = int64(^uint64(0) >> 1)
	result := int64(1)
	for i := int64(1); i < int64(d); i++ {
		// result *= (total + i); result /= i — keep exact by dividing the
		// running product, which is always integral for binomials.
		hi := total + i
		if result > maxInt64/hi {
			return maxInt64
		}
		result = result * hi / i
	}
	return result
}
