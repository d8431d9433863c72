package main

import "testing"

// TestCheckTenants: a population makeTenants cannot draw is refused before
// pre-training — 46 two-class tenants of 10 classes (C(10, 2) = 45), an
// 11-class set of 10 — and C(100, 50), past int64, still compares.
func TestCheckTenants(t *testing.T) {
	for _, tc := range []struct {
		tenants, classesPer, numClasses int
		ok                              bool
	}{
		{45, 2, 10, true}, {46, 2, 10, false},
		{1, 10, 10, true}, {2, 10, 10, false}, {1, 11, 10, false},
		{0, 2, 10, false}, {4, 0, 10, false},
		{1 << 62, 50, 100, true},
	} {
		if err := checkTenants(tc.tenants, tc.classesPer, tc.numClasses); (err == nil) != tc.ok {
			t.Errorf("checkTenants(%d, %d, %d) = %v, want ok %v", tc.tenants, tc.classesPer, tc.numClasses, err, tc.ok)
		}
	}
}
