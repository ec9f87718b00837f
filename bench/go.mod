module github.com/locastream/locastream/bench

go 1.22

require github.com/locastream/locastream v0.0.0

replace github.com/locastream/locastream => ../
