module disttrack/bench

go 1.22

require disttrack v0.0.0

replace disttrack => ../
