package main

import (
	"slices"
	"strings"
	"testing"
)

func TestStripFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		strip []string
		want  []string
	}{
		{"separate value", []string{"-execute", "-group", "spawn:2", "-dp", "2"}, []string{"group"}, []string{"-execute", "-dp", "2"}},
		{"joined value", []string{"-group=spawn:2", "-dp=2"}, []string{"group"}, []string{"-dp=2"}},
		{"double dash", []string{"--rank", "1", "--execute"}, []string{"rank"}, []string{"--execute"}},
		{"bool before a flag", []string{"-supervise", "-rank", "1", "-execute"}, []string{"supervise"}, []string{"-rank", "1", "-execute"}},
		{"value last", []string{"-execute", "-rank", "2"}, []string{"rank"}, []string{"-execute"}},
		{"bool last", []string{"-execute", "-supervise"}, []string{"supervise"}, []string{"-execute"}},
		{"several", []string{"-group", "spawn:3", "-rank", "0", "-supervise", "-csv", "out.csv", "-execute"},
			[]string{"group", "rank", "supervise", "csv"}, []string{"-execute"}},
		{"name is whole", []string{"-ranks", "3", "-rank", "1"}, []string{"rank"}, []string{"-ranks", "3"}},
		{"nothing to strip", []string{"-method", "gpipe"}, []string{"group"}, []string{"-method", "gpipe"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := stripFlags(tc.args, tc.strip...); !slices.Equal(got, tc.want) {
				t.Fatalf("stripFlags(%q, %q) = %q, want %q", tc.args, tc.strip, got, tc.want)
			}
		})
	}
}

// The simulated data-parallel width is -dp replicas in every process of
// the group: W = dp x ranks. A -dp below 1 or a spawn spec without a rank
// count of at least 2 is an error, not an exit.
func TestDataParallelWidth(t *testing.T) {
	for _, tc := range []struct {
		dp    int
		group string
		want  int
	}{
		{1, "", 1},
		{4, "", 4},
		{1, "spawn:2", 2},
		{2, "spawn:3", 6},
		{2, "unix:/tmp/r0.sock,unix:/tmp/r1.sock", 4},
		{1, "tcp:10.0.0.1:7000,tcp:10.0.0.2:7000,tcp:10.0.0.3:7000", 3},
	} {
		w, err := dataParallelWidth(tc.dp, tc.group)
		if err != nil || w != tc.want {
			t.Errorf("dataParallelWidth(%d, %q) = %d, %v; want %d", tc.dp, tc.group, w, err, tc.want)
		}
	}
	for _, dp := range []int{0, -1} {
		if _, err := dataParallelWidth(dp, "spawn:2"); err == nil || !strings.Contains(err.Error(), "-dp") {
			t.Errorf("dataParallelWidth(%d) = %v, want an error naming -dp", dp, err)
		}
	}
	for _, group := range []string{"spawn:1", "spawn:x", "spawn:"} {
		if _, err := dataParallelWidth(1, group); err == nil || !strings.Contains(err.Error(), "-group") {
			t.Errorf("dataParallelWidth(1, %q) = %v, want an error naming -group", group, err)
		}
	}
}
