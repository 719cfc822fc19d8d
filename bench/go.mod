module hybridstore/bench

go 1.22

require hybridstore v0.0.0

replace hybridstore => ../
