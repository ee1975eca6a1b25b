package chainlog

import (
	"slices"
	"strings"
)

// sortRows sorts named rows column by column, bytewise: the order every
// answer promises, for tests that collect rows some other way.
func sortRows(rows [][]string) {
	slices.SortFunc(rows, func(a, b []string) int {
		for k := 0; k < len(a) && k < len(b); k++ {
			if c := strings.Compare(a[k], b[k]); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	})
}
