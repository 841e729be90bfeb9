module pimtree/e2ebench

go 1.23

require pimtree v0.0.0

replace pimtree => ../
